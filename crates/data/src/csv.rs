//! CSV import/export for datasets. The CLI's `fit`, `eval` and `audit`, the
//! server's `POST /fit` and its CSV ingest batches read it; the CLI's
//! `synth-relational` writes it, and the server's CSV stream writes the same
//! bytes.
//!
//! The format is deliberately simple: a header of attribute names followed by
//! one comma-separated row per tuple. Labelled categorical values are written
//! as labels; everything else as `v{code}`. No quoting/escaping is
//! supported, so a schema refuses what a cell cannot carry: an attribute
//! name or a label holding `,`, `\r` or `\n`, and an empty label (its rows
//! would read back as blank lines).

use std::collections::HashMap;
use std::io::{BufRead, Write};

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::schema::Schema;

/// Writes `dataset` as CSV.
///
/// # Errors
/// Propagates I/O errors as [`DataError::Parse`].
pub fn write_csv<W: Write>(dataset: &Dataset, out: &mut W) -> Result<(), DataError> {
    let io = |e: std::io::Error| DataError::Parse(e.to_string());
    let schema = dataset.schema();
    let header: Vec<&str> = schema.attributes().iter().map(|a| a.name()).collect();
    writeln!(out, "{}", header.join(",")).map_err(io)?;
    for row in 0..dataset.n() {
        let mut cells = Vec::with_capacity(dataset.d());
        for attr in 0..dataset.d() {
            let code = dataset.value(row, attr);
            cells.push(schema.attribute(attr).domain().label(code));
        }
        writeln!(out, "{}", cells.join(",")).map_err(io)?;
    }
    Ok(())
}

/// Reads a CSV produced by [`write_csv`] back into a dataset over `schema`.
///
/// Lines end in `\n` or `\r\n`, the last one optionally in neither, and
/// blank lines are skipped (they still count toward the row numbers of
/// errors). Cells are resolved first as domain labels, then as `v{code}`
/// synthesised labels, then as bare codes; a code is an optional `+` and
/// decimal digits that fit a `u32`, the grammar of `str::parse::<u32>`.
/// Each line is decoded as bytes from one reused buffer, so a line that is
/// not UTF-8 is refused as holding an unparseable cell.
///
/// # Errors
/// Returns [`DataError::Parse`] on malformed input and domain violations.
pub fn read_csv<R: BufRead>(schema: &Schema, mut input: R) -> Result<Dataset, DataError> {
    let io = |e: std::io::Error| DataError::Parse(e.to_string());
    let mut line = Vec::new();
    if !next_line(&mut input, &mut line).map_err(io)? {
        return Err(DataError::Parse("missing header".into()));
    }
    let names: Vec<&[u8]> = line.split(|&b| b == b',').collect();
    if names.len() != schema.len() {
        return Err(DataError::Parse(format!(
            "header has {} columns, schema has {}",
            names.len(),
            schema.len()
        )));
    }
    for (i, name) in names.iter().enumerate() {
        if schema.attribute(i).name().as_bytes() != *name {
            return Err(DataError::Parse(format!(
                "column {i} is `{}`, expected `{}`",
                String::from_utf8_lossy(name),
                schema.attribute(i).name()
            )));
        }
    }

    // Each column's labels with their codes, and its domain size.
    let decoders: Vec<(HashMap<&[u8], u32>, usize)> = schema
        .attributes()
        .iter()
        .map(|a| {
            let labels = a.domain().labels().unwrap_or_default();
            let labels = labels.iter().zip(0..).map(|(label, code)| (label.as_bytes(), code));
            (labels.collect(), a.domain_size())
        })
        .collect();
    let d = schema.len();
    let mut columns: Vec<Vec<u32>> = vec![Vec::new(); d];
    let mut row = 1;
    while next_line(&mut input, &mut line).map_err(io)? {
        row += 1;
        if line.is_empty() {
            continue;
        }
        // A ragged row is refused as ragged, whatever its cells hold; its
        // cells are counted only when it is refused.
        let refuse = |error: String| {
            let cells = line.iter().filter(|&&b| b == b',').count() + 1;
            let ragged = format!("row {row} has {cells} cells, expected {d}");
            DataError::Parse(if cells == d { error } else { ragged })
        };
        let mut cells = line.split(|&b| b == b',');
        for (i, ((labels, size), column)) in decoders.iter().zip(&mut columns).enumerate() {
            let Some(cell) = cells.next() else {
                return Err(refuse(String::new()));
            };
            let code = labels.get(cell).copied();
            let code = code.or_else(|| cell.strip_prefix(b"v").and_then(parse_code));
            let Some(code) = code.or_else(|| parse_code(cell)) else {
                let cell = String::from_utf8_lossy(cell);
                return Err(refuse(format!("row {row}: unparseable cell `{cell}`")));
            };
            if code as usize >= *size {
                let name = schema.attribute(i).name();
                return Err(refuse(format!("row {row}: code {code} out of domain for `{name}`")));
            }
            column.push(code);
        }
        if cells.next().is_some() {
            return Err(refuse(String::new()));
        }
    }
    Dataset::from_columns(schema.clone(), columns)
}

/// Reads the next line into `line` without its `\n` or `\r\n`, as
/// [`BufRead::lines`] strips them; `false` at the end of the input.
fn next_line(input: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<bool> {
    line.clear();
    if input.read_until(b'\n', line)? == 0 {
        return Ok(false);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    }
    Ok(true)
}

/// A code in the grammar of `str::parse::<u32>`: an optional `+`, then one
/// or more decimal digits, `None` on overflow. Inlined into each caller's
/// `read_csv`, which is generic and so compiled in the caller's crate.
#[inline]
fn parse_code(cell: &[u8]) -> Option<u32> {
    let digits = cell.strip_prefix(b"+").unwrap_or(cell);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u32, |code, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        code.checked_mul(10)?.checked_add(u32::from(digit))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_labelled("work", ["private", "gov"]).unwrap(),
            Attribute::binary("flag"),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let ds = Dataset::from_rows(schema(), &[vec![0, 1], vec![1, 0]]).unwrap();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("work,flag\nprivate,v1\n"));
        let back = read_csv(&schema(), &buf[..]).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn a_labelled_schema_round_trips() {
        // Labels that look like codes or `v` codes still name their own
        // codes, since a label wins; awkward but legal characters pass.
        let schema = Schema::new(vec![
            Attribute::categorical_labelled("city", ["New York; NY", "São Paulo", "v0", "1"])
                .unwrap(),
            Attribute::categorical_labelled("quote \"q\"", ["say \"hi\"", " ", "tab\there"])
                .unwrap(),
            Attribute::categorical("zip", 12).unwrap(),
            Attribute::binary("é 😀"),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> =
            (0..24).map(|i: u32| vec![i % 4, i % 3, (i * 7) % 12, i % 2]).collect();
        let data = Dataset::from_rows(schema.clone(), &rows).unwrap();
        let mut buf = Vec::new();
        write_csv(&data, &mut buf).unwrap();
        assert_eq!(read_csv(&schema, &buf[..]).unwrap(), data);
    }

    #[test]
    fn read_accepts_bare_codes() {
        let input = b"work,flag\n1,0\n" as &[u8];
        let ds = read_csv(&schema(), input).unwrap();
        assert_eq!(ds.value(0, 0), 1);
    }

    #[test]
    fn read_rejects_bad_header() {
        let input = b"wrong,flag\n0,0\n" as &[u8];
        assert!(read_csv(&schema(), input).is_err());
    }

    #[test]
    fn read_rejects_out_of_domain() {
        let input = b"work,flag\n9,0\n" as &[u8];
        assert!(read_csv(&schema(), input).is_err());
    }

    #[test]
    fn read_rejects_ragged_rows() {
        let input = b"work,flag\n0\n" as &[u8];
        assert!(read_csv(&schema(), input).is_err());
    }

    #[test]
    fn skips_blank_lines() {
        let input = b"work,flag\n0,0\n\n1,1\n" as &[u8];
        let ds = read_csv(&schema(), input).unwrap();
        assert_eq!(ds.n(), 2);
    }

    /// The codes of column `attr` read from `input`.
    fn column(input: &[u8], attr: usize) -> Vec<u32> {
        read_csv(&schema(), input).unwrap().column(attr).to_vec()
    }

    /// The parse error `input` is refused with.
    fn refusal(input: &[u8]) -> String {
        match read_csv(&schema(), input) {
            Err(DataError::Parse(e)) => e,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn crlf_line_endings_read_like_lf() {
        let lf = read_csv(&schema(), b"work,flag\ngov,1\n\nprivate,v0\n" as &[u8]).unwrap();
        let crlf =
            read_csv(&schema(), b"work,flag\r\ngov,1\r\n\r\nprivate,v0\r\n" as &[u8]).unwrap();
        assert_eq!(crlf, lf);
        assert_eq!(crlf.n(), 2);
    }

    #[test]
    fn a_last_line_without_a_newline_is_read() {
        assert_eq!(column(b"work,flag\n0,0\n1,1", 1), vec![0, 1]);
        assert_eq!(column(b"work,flag\r\n0,0\r\ngov,v1", 0), vec![0, 1]);
    }

    #[test]
    fn codes_take_leading_zeros_and_a_plus_sign() {
        assert_eq!(column(b"work,flag\n0,v01\n0,+1\n0,v+1\n0,001\n", 1), vec![1, 1, 1, 1]);
    }

    #[test]
    fn malformed_codes_are_refused() {
        for cell in ["-0", "4294967296", "v4294967296", " 1", "1 ", "", "v", "+", "v-1", "1x"] {
            let input = format!("work,flag\n0,{cell}\n");
            assert_eq!(
                refusal(input.as_bytes()),
                format!("row 2: unparseable cell `{cell}`"),
                "cell `{cell}`"
            );
        }
        // A code that parses but lies outside the domain.
        assert_eq!(
            refusal(b"work,flag\n0,4294967295\n"),
            "row 2: code 4294967295 out of domain for `flag`"
        );
    }

    #[test]
    fn a_label_wins_over_a_bare_code() {
        let schema = Schema::new(vec![
            Attribute::categorical_labelled("x", ["1", "0"]).unwrap(),
            Attribute::binary("flag"),
        ])
        .unwrap();
        let ds = read_csv(&schema, b"x,flag\n1,1\n0,0\nv1,1\n" as &[u8]).unwrap();
        assert_eq!(ds.column(0), &[0, 1, 1]);
    }

    #[test]
    fn a_non_utf8_cell_is_refused() {
        let refused = read_csv(&schema(), b"work,flag\n0,\xff\n" as &[u8]);
        assert!(matches!(refused, Err(DataError::Parse(_))), "{refused:?}");
        let refused = read_csv(&schema(), b"work,flag\n0,1\ngov\xc3,0\n" as &[u8]);
        assert!(matches!(refused, Err(DataError::Parse(_))), "{refused:?}");
    }

    #[test]
    fn error_rows_count_blank_lines() {
        assert_eq!(refusal(b"work,flag\n0,0\n\n9,0\n"), "row 4: code 9 out of domain for `work`");
        assert_eq!(refusal(b"work,flag\r\n\r\n0,0\r\n0,x\r\n"), "row 4: unparseable cell `x`");
        assert_eq!(refusal(b"work,flag\n\n\n0\n"), "row 4 has 1 cells, expected 2");
        // A ragged row is reported as ragged, whatever its cells hold.
        assert_eq!(refusal(b"work,flag\n0,x,1\n"), "row 2 has 3 cells, expected 2");
    }

    #[test]
    fn header_errors_keep_their_texts() {
        assert_eq!(refusal(b""), "missing header");
        assert_eq!(refusal(b"work\n0\n"), "header has 1 columns, schema has 2");
        assert_eq!(refusal(b"work,flags\n0,0\n"), "column 1 is `flags`, expected `flag`");
        assert_eq!(refusal(b"work,flag\r"), "column 1 is `flag\r`, expected `flag`");
    }
}
