//! JSON rendering of cell values: the one formatter every served cell
//! goes through, and the buffer a frozen [`crate::Table`] keeps of its
//! cells rendered by it ([`Table::render_json`](crate::Table::render_json)).

use crate::table::Table;
use crate::value::ValueRef;
use std::fmt::Write;

/// Appends `s` to `out` escaped for the inside of a JSON string literal
/// (quotes, backslashes, control characters): runs of clean bytes are
/// copied whole, only the bytes that need it are rewritten.
fn escape_body_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so both cuts are char boundaries.
        out.push_str(s.get(clean..i).unwrap_or_default());
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(s.get(clean..).unwrap_or_default());
}

/// Appends `s` to `out` as a JSON string literal, escaping quotes,
/// backslashes, and control characters. Review text goes through here on
/// every response, so it must be correct for arbitrary input.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    escape_body_into(out, s);
    out.push('"');
}

/// [`escape_into`] for a value's `Display`/`Debug` rendering
/// (`format_args!("{x:?}")`), escaped as it is produced rather than
/// formatted into a temporary first.
pub fn escape_fmt_into(out: &mut String, args: std::fmt::Arguments<'_>) {
    struct Escaping<'a>(&'a mut String);
    impl Write for Escaping<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            escape_body_into(self.0, s);
            Ok(())
        }
    }
    out.push('"');
    let _ = Escaping(out).write_fmt(args);
    out.push('"');
}

/// Appends an f64 in JSON-safe form: NaN and infinities (which JSON
/// cannot represent) become `null`.
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Appends one cell value as JSON. Takes the executor's borrowed
/// [`ValueRef`] view — scalars come straight out of the columnar
/// storage, text is borrowed, nothing is cloned.
pub fn push_value(out: &mut String, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => out.push_str("null"),
        ValueRef::Int(i) => {
            let _ = write!(out, "{i}");
        }
        ValueRef::Float(x) => push_f64(out, x),
        ValueRef::Str(s) => escape_into(out, s),
        ValueRef::Bool(b) => out.push_str(if b { "true" } else { "false" }),
    }
}

/// Every cell of a table as [`push_value`] renders it, row-major: a
/// row's cells are comma-joined and contiguous (no comma between rows),
/// `starts[r · width + c]` is where cell `(r, c)` begins, and one more
/// offset ends the last row. Both allocations are exactly sized.
#[derive(Debug)]
pub(crate) struct RenderedCells {
    text: Box<str>,
    starts: Box<[u32]>,
    width: usize,
}

impl RenderedCells {
    /// Renders every cell of `table`; `None` for a table without
    /// columns, or one whose text would not fit `u32` offsets.
    pub(crate) fn of(table: &Table) -> Option<RenderedCells> {
        let width = table.schema().columns.len();
        if width == 0 {
            return None;
        }
        let mut text = String::new();
        let mut starts = Vec::with_capacity(table.len() * width + 1);
        for row in table.rows() {
            for c in 0..width {
                if c > 0 {
                    text.push(',');
                }
                starts.push(u32::try_from(text.len()).ok()?);
                push_value(&mut text, row.get(c));
            }
        }
        starts.push(u32::try_from(text.len()).ok()?);
        Some(RenderedCells {
            text: text.into_boxed_str(),
            starts: starts.into_boxed_slice(),
            width,
        })
    }

    /// Row `r` of the buffer.
    pub(crate) fn row(&self, r: usize) -> RenderedRow<'_> {
        RenderedRow {
            cells: self,
            row: r,
        }
    }

    /// Heap bytes: the text plus four per offset.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.text.len() + self.starts.len() * std::mem::size_of::<u32>()
    }
}

/// One row of a table's rendered cells ([`Table::render_json`]).
#[derive(Debug, Clone, Copy)]
pub struct RenderedRow<'a> {
    cells: &'a RenderedCells,
    row: usize,
}

impl<'a> RenderedRow<'a> {
    /// Every cell of the row as JSON, comma-joined.
    pub fn cells(&self) -> &'a str {
        let (cells, w) = (self.cells, self.cells.width);
        &cells.text[cells.starts[self.row * w] as usize..cells.starts[(self.row + 1) * w] as usize]
    }

    /// Cell `c` as JSON.
    pub fn cell(&self, c: usize) -> &'a str {
        let cells = self.cells;
        let i = self.row * cells.width + c;
        let next = cells.starts[i + 1] as usize;
        // A cell followed by another of its row ends before their comma.
        let end = if c + 1 < cells.width { next - 1 } else { next };
        &cells.text[cells.starts[i] as usize..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType, Schema};
    use crate::value::Value;

    fn rendered(v: ValueRef<'_>) -> String {
        let mut out = String::new();
        push_value(&mut out, v);
        out
    }

    #[test]
    fn push_value_renders_edge_values() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        let cases: Vec<(ValueRef<'_>, String)> = vec![
            (ValueRef::Str(""), "\"\"".into()),
            (ValueRef::Str("a \"q\" b"), r#""a \"q\" b""#.into()),
            (ValueRef::Str("back\\slash"), r#""back\\slash""#.into()),
            (ValueRef::Str("émigré ☕ 旅館"), "\"émigré ☕ 旅館\"".into()),
            (
                ValueRef::Str(&every_control),
                format!(
                    "\"{}\"",
                    (0u8..0x20)
                        .map(|b| match b {
                            0x08 => "\\b".to_string(),
                            b'\t' => "\\t".to_string(),
                            b'\n' => "\\n".to_string(),
                            0x0c => "\\f".to_string(),
                            b'\r' => "\\r".to_string(),
                            b => format!("\\u{b:04x}"),
                        })
                        .collect::<String>()
                ),
            ),
            (ValueRef::Float(-0.0), "-0".into()),
            (ValueRef::Float(0.25), "0.25".into()),
            (ValueRef::Float(f64::NAN), "null".into()),
            (ValueRef::Float(f64::INFINITY), "null".into()),
            (ValueRef::Float(f64::NEG_INFINITY), "null".into()),
            (ValueRef::Float(1e21), "1000000000000000000000".into()),
            (ValueRef::Float(5e-324), format!("0.{}5", "0".repeat(323))),
            (ValueRef::Int(i64::MIN), "-9223372036854775808".into()),
            (ValueRef::Int(0), "0".into()),
            (ValueRef::Bool(true), "true".into()),
            (ValueRef::Bool(false), "false".into()),
            (ValueRef::Null, "null".into()),
        ];
        for (value, want) in &cases {
            assert_eq!(&rendered(*value), want, "{value:?}");
        }
    }

    /// A table holding every edge value in one column or another, with
    /// NULLs: each row's pre-rendered bytes and each cell's must be what
    /// the formatter writes for them.
    #[test]
    fn rendered_cells_equal_the_formatter_for_every_row_and_cell() {
        let mut table = Table::new(Schema::new(
            "edges",
            vec![
                Column::new("name", ColumnType::Text),
                Column::new("x", ColumnType::Float),
                Column::new("n", ColumnType::Int),
                Column::new("b", ColumnType::Bool),
            ],
            0,
        ));
        let names = [
            "",
            "q\"uote",
            "b\\s",
            "ctl\u{1}\u{1f}\n",
            "旅館 ☕",
            "plain",
        ];
        let floats = [
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e21,
            5e-324,
        ];
        for (r, (name, x)) in names.iter().zip(floats).enumerate() {
            table
                .insert(vec![
                    Value::text(name),
                    if r == 3 { Value::Null } else { Value::Float(x) },
                    if r == 4 {
                        Value::Null
                    } else {
                        Value::Int(i64::MIN + r as i64)
                    },
                    if r == 5 {
                        Value::Null
                    } else {
                        Value::Bool(r % 2 == 0)
                    },
                ])
                .unwrap();
        }
        let cells = RenderedCells::of(&table).unwrap();
        for row in table.rows() {
            let mut want = String::new();
            for c in 0..row.len() {
                if c > 0 {
                    want.push(',');
                }
                want.push_str(&rendered(row.get(c)));
                assert_eq!(cells.row(row.index()).cell(c), rendered(row.get(c)));
            }
            assert_eq!(cells.row(row.index()).cells(), want);
        }
        assert_eq!(
            cells.memory_bytes(),
            cells.text.len() + (table.len() * 4 + 1) * 4,
            "the text plus one offset per cell and one past the end"
        );
    }
}
