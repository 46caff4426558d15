//! A hand-rolled parser for the TOML subset the scenario language uses.
//!
//! No external dependency (the reproduction vendors everything it
//! needs), and no more TOML than the scenario files require:
//!
//! * `key = value` pairs with bare keys,
//! * `[table.header]` and `[[array.of.tables]]` with dotted paths,
//! * strings (`"..."` with `\\ \" \n \t \r` escapes), booleans,
//!   integers (decimal and `0x…`, `_` separators), floats, and
//!   single-line arrays (nesting allowed),
//! * `#` comments and blank lines.
//!
//! Deliberately missing: multi-line strings/arrays, inline tables,
//! dotted keys on the left of `=`, dates. Every [`Item`] carries the
//! line/column it started at, so the `spec` layer can report "unknown
//! key `foo` (line 12, col 3)" instead of a bare serde-style path.

use std::fmt;

/// Where a token started, 1-based.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Line number (1-based).
    pub line: u32,
    /// Column number (1-based, in characters).
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}", self.line, self.col)
    }
}

/// A parse or validation error, positioned in the source file — or in
/// the `--override` that wrote the offending value.
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    /// Where it happened: in the file, or, when `override_spec` is set,
    /// in that override's text.
    pub span: Span,
    /// What went wrong.
    pub msg: String,
    /// The `key.path=value` override whose value is at fault, when the
    /// file does not hold that value.
    pub override_spec: Option<String>,
}

impl Error {
    /// Build an error at `span`.
    pub fn at(span: Span, msg: impl Into<String>) -> Error {
        Error {
            span,
            msg: msg.into(),
            override_spec: None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.override_spec {
            Some(spec) => write!(f, "--override {spec}: {}", self.msg),
            None => write!(f, "{}: {}", self.span, self.msg),
        }
    }
}

impl std::error::Error for Error {}

/// A parsed value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `"..."`.
    Str(String),
    /// Decimal or hex integer.
    Int(i64),
    /// Float (any number containing `.`, `e` or `E`).
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `[ v, v, … ]` on one line.
    Array(Vec<Item>),
    /// A (sub)table from a `[header]` or `[[header]]`.
    Table(Table),
}

impl Value {
    /// Human name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

/// A value plus where it started.
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    /// The value.
    pub value: Value,
    /// Source position of the value (arrays/tables: of the opener).
    pub span: Span,
}

/// An ordered key → item map. Order is preserved so "first unknown key"
/// errors and array-of-table iteration are deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    /// Entries in file order.
    pub entries: Vec<(String, Item)>,
    /// Where the table was opened (the header, or 1:1 for the root).
    pub span: Span,
}

impl Table {
    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Item> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Look up a key, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Item> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn insert(&mut self, key: &str, item: Item) -> Result<(), Error> {
        if self.get(key).is_some() {
            return Err(Error::at(item.span, format!("duplicate key `{key}`")));
        }
        self.entries.push((key.to_string(), item));
        Ok(())
    }
}

/// Parse a whole scenario file into its root [`Table`].
pub fn parse(src: &str) -> Result<Table, Error> {
    let mut root = Table {
        entries: Vec::new(),
        span: Span { line: 1, col: 1 },
    };
    // Path of the table currently receiving `key = value` lines. Each
    // segment is (name, is-array); re-resolved per line because pushing
    // to an array of tables moves earlier borrows.
    let mut current: Vec<String> = Vec::new();

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let mut lex = Lexer::new(raw, line_no);
        lex.skip_ws();
        if lex.at_end_or_comment() {
            continue;
        }
        if lex.peek() == Some('[') {
            let span = lex.span();
            let is_array = lex.rest().starts_with("[[");
            lex.bump();
            if is_array {
                lex.bump();
            }
            let path = lex.header_path()?;
            let closer = if is_array { "]]" } else { "]" };
            if !lex.rest().starts_with(closer) {
                return Err(Error::at(lex.span(), format!("expected `{closer}`")));
            }
            for _ in 0..closer.len() {
                lex.bump();
            }
            lex.skip_ws();
            if !lex.at_end_or_comment() {
                return Err(Error::at(lex.span(), "trailing characters after header"));
            }
            open_table(&mut root, &path, is_array, span)?;
            current = path;
            continue;
        }
        // key = value
        let key_span = lex.span();
        let key = lex.bare_key()?;
        lex.skip_ws();
        if lex.peek() != Some('=') {
            return Err(Error::at(lex.span(), "expected `=` after key"));
        }
        lex.bump();
        lex.skip_ws();
        let item = lex.value()?;
        lex.skip_ws();
        if !lex.at_end_or_comment() {
            return Err(Error::at(lex.span(), "trailing characters after value"));
        }
        let table = navigate(&mut root, &current, key_span)?;
        table.insert(&key, item)?;
    }
    Ok(root)
}

/// Parse a single value (used by `--override key=value`). Falls back to
/// a bare string when the text is not a valid TOML value, so
/// `--override name=quick-look` works without inner quotes.
pub fn parse_value_or_str(src: &str) -> Item {
    let mut lex = Lexer::new(src, 1);
    lex.skip_ws();
    if let Ok(item) = lex.value() {
        lex.skip_ws();
        if lex.at_end_or_comment() {
            return item;
        }
    }
    Item {
        value: Value::Str(src.trim().to_string()),
        span: Span { line: 1, col: 1 },
    }
}

/// Walk `path` from the root, returning the table that should receive
/// key/value pairs (the *last* element for arrays of tables).
fn navigate<'t>(root: &'t mut Table, path: &[String], span: Span) -> Result<&'t mut Table, Error> {
    let mut t = root;
    for seg in path {
        let item = t
            .get_mut(seg)
            .ok_or_else(|| Error::at(span, format!("internal: lost table `{seg}`")))?;
        t = match &mut item.value {
            Value::Table(t) => t,
            Value::Array(items) => match items.last_mut() {
                Some(Item {
                    value: Value::Table(t),
                    ..
                }) => t,
                _ => return Err(Error::at(span, format!("`{seg}` is not a table"))),
            },
            _ => return Err(Error::at(span, format!("`{seg}` is not a table"))),
        };
    }
    Ok(t)
}

/// Like [`navigate`], but materializes missing intermediate tables (a
/// `[population.mobility]` header implicitly creates `[population]`).
fn navigate_create<'t>(
    root: &'t mut Table,
    path: &[String],
    span: Span,
) -> Result<&'t mut Table, Error> {
    let mut t = root;
    for seg in path {
        let slot = match t.entries.iter().position(|(k, _)| k == seg) {
            Some(p) => p,
            None => {
                t.entries.push((
                    seg.clone(),
                    Item {
                        value: Value::Table(Table {
                            entries: Vec::new(),
                            span,
                        }),
                        span,
                    },
                ));
                t.entries.len() - 1
            }
        };
        t = match &mut t.entries[slot].1.value {
            Value::Table(t) => t,
            Value::Array(items) => match items.last_mut() {
                Some(Item {
                    value: Value::Table(t),
                    ..
                }) => t,
                _ => return Err(Error::at(span, format!("`{seg}` is not a table"))),
            },
            _ => return Err(Error::at(span, format!("`{seg}` is not a table"))),
        };
    }
    Ok(t)
}

/// Create (or extend, for `[[…]]`) the table named by a header.
fn open_table(root: &mut Table, path: &[String], is_array: bool, span: Span) -> Result<(), Error> {
    let (parents, leaf) = path.split_at(path.len() - 1);
    let parent = navigate_create(root, parents, span)?;
    let leaf = &leaf[0];
    let fresh = Item {
        value: Value::Table(Table {
            entries: Vec::new(),
            span,
        }),
        span,
    };
    match parent.get_mut(leaf) {
        None => {
            let item = if is_array {
                Item {
                    value: Value::Array(vec![fresh]),
                    span,
                }
            } else {
                fresh
            };
            parent.entries.push((leaf.clone(), item));
        }
        Some(existing) => match (&mut existing.value, is_array) {
            (Value::Array(items), true) => items.push(fresh),
            (Value::Table(_), false) => {
                return Err(Error::at(span, format!("table `{leaf}` defined twice")))
            }
            (Value::Array(_), false) => {
                return Err(Error::at(
                    span,
                    format!("`{leaf}` is an array of tables; use `[[{leaf}]]`"),
                ))
            }
            (_, _) => {
                return Err(Error::at(
                    span,
                    format!("`{leaf}` already defined as a value"),
                ))
            }
        },
    }
    Ok(())
}

/// Single-line tokenizer.
struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str, line: u32) -> Lexer<'a> {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line,
            src,
        }
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.pos as u32 + 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn rest(&self) -> String {
        self.chars[self.pos..].iter().collect()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.pos += 1;
        }
    }

    fn at_end_or_comment(&self) -> bool {
        matches!(self.peek(), None | Some('#'))
    }

    fn bare_key(&mut self) -> Result<String, Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(Error::at(self.span(), "expected a key"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    fn header_path(&mut self) -> Result<Vec<String>, Error> {
        let mut path = Vec::new();
        loop {
            self.skip_ws();
            path.push(self.bare_key()?);
            self.skip_ws();
            if self.peek() == Some('.') {
                self.bump();
            } else {
                break;
            }
        }
        Ok(path)
    }

    fn value(&mut self) -> Result<Item, Error> {
        let span = self.span();
        let value = match self.peek() {
            None | Some('#') => return Err(Error::at(span, "expected a value")),
            Some('"') => Value::Str(self.string()?),
            Some('[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.peek() == Some(']') {
                        self.bump();
                        break;
                    }
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => {
                            self.bump();
                        }
                        Some(']') => {}
                        _ => {
                            return Err(Error::at(self.span(), "expected `,` or `]` in array"));
                        }
                    }
                }
                Value::Array(items)
            }
            Some('t') | Some('f') => {
                let word = self.bare_key()?;
                match word.as_str() {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    other => {
                        return Err(Error::at(span, format!("unknown literal `{other}`")));
                    }
                }
            }
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' || c == '.' => {
                self.number(span)?
            }
            Some(c) => return Err(Error::at(span, format!("unexpected character `{c}`"))),
        };
        Ok(Item { value, span })
    }

    fn string(&mut self) -> Result<String, Error> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(Error::at(self.span(), "unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    other => {
                        return Err(Error::at(
                            self.span(),
                            format!(
                                "unknown escape `\\{}`",
                                other.map_or_else(String::new, String::from)
                            ),
                        ))
                    }
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self, span: Span) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(self.peek(),
            Some(c) if c.is_ascii_alphanumeric() || "+-._".contains(c))
        {
            self.pos += 1;
        }
        let raw: String = self.chars[start..self.pos].iter().collect();
        let clean: String = raw.chars().filter(|&c| c != '_').collect();
        if let Some(hex) = clean
            .strip_prefix("0x")
            .or_else(|| clean.strip_prefix("0X"))
        {
            return i64::from_str_radix(hex, 16)
                .map(Value::Int)
                .map_err(|_| Error::at(span, format!("invalid hex integer `{raw}`")));
        }
        if clean.contains(['.', 'e', 'E']) {
            clean
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::at(span, format!("invalid float `{raw}`")))
        } else {
            clean
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::at(span, format!("invalid integer `{raw}`")))
        }
    }

    #[allow(dead_code)]
    fn src(&self) -> &str {
        self.src
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_headers() {
        let t = parse(
            "name = \"demo\" # comment\n\
             count = 500\n\
             seed = 0x2003_1CC9\n\
             rate = 2.5\n\
             live = true\n\
             [medium]\n\
             sigma = 6.0\n\
             [[ap]]\n\
             channel = 1\n\
             [[ap]]\n\
             channel = 6\n",
        )
        .unwrap();
        assert_eq!(t.get("name").unwrap().value, Value::Str("demo".into()));
        assert_eq!(t.get("count").unwrap().value, Value::Int(500));
        assert_eq!(t.get("seed").unwrap().value, Value::Int(0x2003_1CC9));
        assert_eq!(t.get("rate").unwrap().value, Value::Float(2.5));
        assert_eq!(t.get("live").unwrap().value, Value::Bool(true));
        match &t.get("ap").unwrap().value {
            Value::Array(aps) => {
                assert_eq!(aps.len(), 2);
                match &aps[1].value {
                    Value::Table(ap) => {
                        assert_eq!(ap.get("channel").unwrap().value, Value::Int(6))
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_arrays_and_dotted_headers() {
        let t = parse(
            "[population.mobility]\n\
             area = [[0.0, 0.0], [100.0, 50.0]]\n\
             speed = [0.5, 2.0]\n",
        )
        .unwrap();
        let pop = match &t.get("population").unwrap().value {
            Value::Table(t) => t,
            other => panic!("{other:?}"),
        };
        let mob = match &pop.get("mobility").unwrap().value {
            Value::Table(t) => t,
            other => panic!("{other:?}"),
        };
        match &mob.get("area").unwrap().value {
            Value::Array(rows) => assert_eq!(rows.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse("ok = 1\nbad - 2\n").unwrap_err();
        assert_eq!(err.span.line, 2);
        assert!(err.to_string().contains("expected `=`"), "{err}");

        let err = parse("x = 1\nx = 2\n").unwrap_err();
        assert_eq!(err.span.line, 2);
        assert!(err.to_string().contains("duplicate key"), "{err}");

        let err = parse("s = \"open\n").unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
    }

    #[test]
    fn override_values_fall_back_to_strings() {
        assert_eq!(parse_value_or_str("42").value, Value::Int(42));
        assert_eq!(parse_value_or_str("2.5").value, Value::Float(2.5));
        assert_eq!(parse_value_or_str("true").value, Value::Bool(true));
        assert_eq!(
            parse_value_or_str("30s").value,
            Value::Str("30s".to_string())
        );
        assert_eq!(
            parse_value_or_str("\"quoted\"").value,
            Value::Str("quoted".to_string())
        );
    }
}
