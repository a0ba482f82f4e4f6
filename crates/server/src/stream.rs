//! Row rendering for streamed synthesis responses.
//!
//! The synthesis endpoints deliver rows in the sampler's 1024-row chunk
//! scheme ([`privbayes::CHUNK_ROWS`]), and each chunk is written as one
//! HTTP chunk. [`privbayes_synth::render_chunks`] samples and renders the
//! chunks on up to [`ServerConfig::fit_threads`] threads, each into a flat
//! row buffer and a render buffer it reuses, and hands them to the
//! connection's thread strictly in chunk order, so the thread count never
//! changes a byte or a chunk boundary. The CLI's `synth` runs the same
//! driver. The format — [`RowFormat`] — and its renderer —
//! [`privbayes_synth::RowRenderer`] — live in `privbayes_synth::spec`
//! alongside the request specs (this module re-exports the format): the
//! format is part of the typed request surface, shared by the server, the
//! bundled client, and the CLI. A stream builds its renderer once, before
//! its first row: every label its projected columns can take is rendered
//! up front, so a row costs one slice copy per cell.
//!
//! CSV output is byte-compatible with `privbayes_data::csv::write_csv`
//! restricted to the projected columns — the header line plus one
//! label-per-cell line per row — so a streamed response concatenates to
//! exactly the bytes the batch path would produce for the same seed and
//! projection. JSONL output (`application/x-ndjson`) emits one compact JSON
//! object per row, escaped through the same `Json` writer as the release
//! artifacts.
//!
//! [`ServerConfig::fit_threads`]: crate::ServerConfig::fit_threads

pub use privbayes_synth::RowFormat;

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Dataset, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::binary("smoker"),
            Attribute::categorical_labelled("region", ["north", "south"]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn csv_matches_write_csv_bytes() {
        let schema = schema();
        let rows = vec![vec![0, 1], vec![1, 0]];
        let data = Dataset::from_rows(schema.clone(), &rows).unwrap();
        let mut expected = Vec::new();
        privbayes_data::csv::write_csv(&data, &mut expected).unwrap();
        let streamed = format!(
            "{}{}",
            RowFormat::Csv.header(&schema, None),
            RowFormat::Csv.render(&schema, None, &rows)
        );
        assert_eq!(streamed.as_bytes(), &expected[..]);
    }

    #[test]
    fn jsonl_renders_one_object_per_row() {
        let schema = schema();
        let out = RowFormat::Jsonl.render(&schema, None, &[vec![1, 0]]);
        // Unlabelled domains print their default `v{code}` labels, exactly
        // as the CSV writer does.
        assert_eq!(out, "{\"smoker\":\"v1\",\"region\":\"north\"}\n");
        assert_eq!(RowFormat::Jsonl.header(&schema, None), "");
    }

    #[test]
    fn projection_restricts_and_reorders_columns() {
        let schema = schema();
        assert_eq!(RowFormat::Csv.header(&schema, Some(&[1, 0])), "region,smoker\n");
        let out = RowFormat::Csv.render(&schema, Some(&[1, 0]), &[vec![0, 1]]);
        assert_eq!(out, "north,v1\n");
    }
}
