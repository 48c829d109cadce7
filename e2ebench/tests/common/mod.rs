//! A small JSON reader for the benchmark's own tests: `BENCHMARK.json` and
//! the result line carry floats, which the workspace's integer-only
//! `obs::Json` rejects by design.

#![allow(dead_code)]

use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(BTreeMap<String, J>, Vec<String>),
}

impl J {
    pub fn get(&self, key: &str) -> &J {
        match self {
            J::Obj(m, _) => m.get(key).unwrap_or_else(|| panic!("no key `{key}`")),
            other => panic!("not an object: {other:?}"),
        }
    }
    pub fn keys(&self) -> Vec<String> {
        match self {
            J::Obj(_, order) => order.clone(),
            other => panic!("not an object: {other:?}"),
        }
    }
    pub fn arr(&self) -> &[J] {
        match self {
            J::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
    pub fn str(&self) -> &str {
        match self {
            J::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
    pub fn num(&self) -> f64 {
        match self {
            J::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

pub fn parse(text: &str) -> J {
    let b = text.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing bytes after JSON value");
    v
}

fn ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> J {
    ws(b, i);
    match b[*i] {
        b'{' => {
            *i += 1;
            let (mut m, mut order) = (BTreeMap::new(), Vec::new());
            ws(b, i);
            if b[*i] == b'}' {
                *i += 1;
                return J::Obj(m, order);
            }
            loop {
                ws(b, i);
                let J::Str(k) = value(b, i) else {
                    panic!("object key")
                };
                ws(b, i);
                assert_eq!(b[*i], b':');
                *i += 1;
                let v = value(b, i);
                assert!(m.insert(k.clone(), v).is_none(), "duplicate key `{k}`");
                order.push(k);
                ws(b, i);
                *i += 1;
                if b[*i - 1] == b'}' {
                    return J::Obj(m, order);
                }
                assert_eq!(b[*i - 1], b',');
            }
        }
        b'[' => {
            *i += 1;
            let mut v = Vec::new();
            ws(b, i);
            if b[*i] == b']' {
                *i += 1;
                return J::Arr(v);
            }
            loop {
                v.push(value(b, i));
                ws(b, i);
                *i += 1;
                if b[*i - 1] == b']' {
                    return J::Arr(v);
                }
                assert_eq!(b[*i - 1], b',');
            }
        }
        b'"' => {
            *i += 1;
            let mut s = String::new();
            loop {
                let c = b[*i];
                *i += 1;
                match c {
                    b'"' => return J::Str(s),
                    b'\\' => {
                        let e = b[*i];
                        *i += 1;
                        s.push(match e {
                            b'n' => '\n',
                            b't' => '\t',
                            b'u' => {
                                let hex = std::str::from_utf8(&b[*i..*i + 4]).unwrap();
                                *i += 4;
                                char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap()
                            }
                            other => other as char,
                        });
                    }
                    _ => {
                        // Re-decode multi-byte UTF-8 sequences whole.
                        let start = *i - 1;
                        let mut end = *i;
                        while end < b.len() && (b[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        s.push_str(std::str::from_utf8(&b[start..end]).unwrap());
                        *i = end;
                    }
                }
            }
        }
        b't' => {
            *i += 4;
            J::Bool(true)
        }
        b'f' => {
            *i += 5;
            J::Bool(false)
        }
        b'n' => {
            *i += 4;
            J::Null
        }
        _ => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                *i += 1;
            }
            J::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
        }
    }
}

/// `BENCHMARK.json` at the repository root.
pub fn benchmark() -> J {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
}

/// Names of one metric list of `BENCHMARK.json`.
pub fn names(bench: &J, list: &str) -> Vec<String> {
    bench
        .get(list)
        .arr()
        .iter()
        .map(|m| m.get("name").str().to_string())
        .collect()
}
