//! A hand-rolled parser for the TOML subset the analyzer's config files
//! use: `[table]` headers, `[[array-of-tables]]` headers, and
//! `key = value` pairs where a value is a string, a (possibly
//! multi-line) array of strings, a bool, or an integer. No external
//! crates — same constraint as the rest of the tool.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Value {
    Str(String),
    Array(Vec<String>),
    Bool(bool),
    Int(i64),
}

impl Value {
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_array(&self) -> Option<&[String]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

pub(crate) type Table = BTreeMap<String, Value>;

/// A parsed document: plain tables by dotted name, and array-of-tables
/// by dotted name. Keys before any header land in the `""` table.
#[derive(Debug, Default)]
pub(crate) struct Doc {
    pub tables: BTreeMap<String, Table>,
    pub arrays: BTreeMap<String, Vec<Table>>,
}

impl Doc {
    /// The plain table `name`, or an empty one.
    pub(crate) fn table(&self, name: &str) -> Table {
        self.tables.get(name).cloned().unwrap_or_default()
    }

    /// The array-of-tables `name`, or empty.
    pub(crate) fn array_of(&self, name: &str) -> &[Table] {
        self.arrays.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

enum Target {
    Table(String),
    Array(String),
}

/// Parses `src`; errors carry a 1-based line number.
pub(crate) fn parse(src: &str) -> Result<Doc, String> {
    let mut doc = Doc::default();
    let mut target = Target::Table(String::new());

    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }

        if let Some(inner) = line.strip_prefix("[[") {
            let name = inner
                .strip_suffix("]]")
                .ok_or_else(|| format!("line {lineno}: malformed [[header]]"))?
                .trim()
                .to_string();
            doc.arrays
                .entry(name.clone())
                .or_default()
                .push(Table::new());
            target = Target::Array(name);
            continue;
        }
        if let Some(inner) = line.strip_prefix('[') {
            let name = inner
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: malformed [header]"))?
                .trim()
                .to_string();
            target = Target::Table(name);
            continue;
        }

        let eq = line
            .find('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let key = line[..eq].trim().to_string();
        let mut rest = line[eq + 1..].trim().to_string();

        // Multi-line arrays: keep consuming lines until the bracket
        // balance closes (strings in these files never contain `[`/`]`).
        if rest.starts_with('[') {
            while bracket_balance(&rest) > 0 {
                let (_, cont) = lines
                    .next()
                    .ok_or_else(|| format!("line {lineno}: unterminated array"))?;
                rest.push(' ');
                rest.push_str(strip_comment(cont).trim());
            }
        }

        let value = parse_value(&rest).map_err(|e| format!("line {lineno}: {e}"))?;
        let table = match &target {
            Target::Table(name) => doc.tables.entry(name.clone()).or_default(),
            Target::Array(name) => doc
                .arrays
                .get_mut(name)
                .and_then(|v| v.last_mut())
                .ok_or_else(|| format!("line {lineno}: internal: no open array table"))?,
        };
        table.insert(key, value);
    }
    Ok(doc)
}

/// Drops a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn bracket_balance(s: &str) -> i32 {
    let mut bal = 0;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => bal += 1,
            ']' if !in_str => bal -= 1,
            _ => {}
        }
    }
    bal
}

fn parse_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if s.starts_with('"') {
        return Ok(Value::Str(parse_string(s)?.0));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            if rest.starts_with(',') {
                rest = rest[1..].trim_start();
                continue;
            }
            let (item, remainder) = parse_string(rest)?;
            items.push(item);
            rest = remainder.trim_start();
        }
        return Ok(Value::Array(items));
    }
    s.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("unrecognised value `{s}`"))
}

/// Parses one leading double-quoted string; returns (content, rest).
fn parse_string(s: &str) -> Result<(String, &str), String> {
    let body = s
        .strip_prefix('"')
        .ok_or_else(|| format!("expected string, got `{s}`"))?;
    let mut out = String::new();
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            out.push(match c {
                'n' => '\n',
                't' => '\t',
                '\\' => '\\',
                '"' => '"',
                other => other,
            });
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => return Ok((out, &body[i + 1..])),
            other => out.push(other),
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
# top comment
[panic_free]
files = [
  "crates/a/src/x.rs",   # inline comment
  "crates/b/src/y.rs",
]

[[panic_free.exclude]]
file = "crates/a/src/x.rs"
fn = "encode"
reason = "encode side"

[[panic_free.exclude]]
file = "crates/b/src/y.rs"
fn = "emit"
reason = "writer"

[alloc]
hot = ["walk_reusing"]
max = 10
strict = true
"#;

    #[test]
    fn parses_tables_arrays_and_values() {
        let doc = parse(SRC).unwrap();
        let pf = doc.table("panic_free");
        assert_eq!(
            pf["files"].as_array().unwrap(),
            ["crates/a/src/x.rs", "crates/b/src/y.rs"]
        );
        let ex = doc.array_of("panic_free.exclude");
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0]["fn"].as_str(), Some("encode"));
        assert_eq!(ex[1]["reason"].as_str(), Some("writer"));
        let al = doc.table("alloc");
        assert_eq!(al["max"], Value::Int(10));
        assert_eq!(al["strict"], Value::Bool(true));
    }

    #[test]
    fn strings_with_escapes_and_hashes() {
        let doc = parse(r#"k = "a \"q\" # not comment""#).unwrap();
        assert_eq!(doc.table("")["k"].as_str(), Some(r#"a "q" # not comment"#));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("[broken\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}
