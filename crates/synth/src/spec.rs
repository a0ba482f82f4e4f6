//! Typed request specs for the query API v2: [`SynthSpec`] (conditional,
//! projected, resumable synthesis) and [`MarginalQuery`] (direct marginal
//! answers from the released θ).
//!
//! The paper's whole evaluation (§6) is phrased as workloads *over the
//! released model* — α-way marginals and label-conditioned tasks — so those
//! workloads get first-class request objects here instead of forcing every
//! client to materialise full rows and re-aggregate. A spec is built either
//! programmatically (builder methods) or from a JSON body
//! ([`SynthSpec::from_json`]), then **resolved** against a concrete
//! [`Schema`] ([`SynthSpec::resolve`]), which is where all validation
//! happens and where names/labels become indices/codes. Every failure is a
//! typed [`SpecError`]; the serving layer maps the whole family to one
//! structured `400 invalid-spec` response and the CLI to exit code 4.
//!
//! # Determinism contract
//!
//! A resolved spec pins the response bytes completely: for a fixed
//! `(model, seed, spec)` the rendered rows are identical across servers,
//! workers, and interruptions. An empty spec (no evidence, no projection,
//! no cursor) reproduces the legacy unconditional stream byte for byte; a
//! [`Cursor`] resumes a stream so that `prefix + resumed == uninterrupted`
//! exactly; [`MarginalQuery`] answers are bit-reproducible (they go through
//! `privbayes::inference::theta_projection`, whose operation order is
//! specified).

use std::fmt;

use privbayes::sampler::SampleSpec;
use privbayes_data::Schema;
use privbayes_model::{seed_from_json, seed_to_json, Json};

/// A spec-validation failure. Each variant names exactly what the client
/// got wrong; the server surfaces the family as `400` with a JSON body
/// `{"error": "invalid-spec", "message": …}` and the CLI exits with code 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// An attribute reference matched nothing in the schema.
    UnknownAttribute(String),
    /// An attribute appeared twice in a projection/evidence/query list.
    DuplicateAttribute(String),
    /// An evidence value is outside its attribute's domain.
    UnknownValue {
        /// The attribute the value was given for.
        attr: String,
        /// The offending label/code as written.
        value: String,
    },
    /// A query's attribute list is empty.
    EmptyAttrs,
    /// A cursor token failed to decode, or contradicts the spec's seed.
    BadCursor(String),
    /// An unknown output format name.
    BadFormat(String),
    /// A JSON body field is missing, mistyped, or unknown.
    BadField(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            SpecError::DuplicateAttribute(name) => write!(f, "attribute `{name}` repeated"),
            SpecError::UnknownValue { attr, value } => {
                write!(f, "value `{value}` is outside the domain of attribute `{attr}`")
            }
            SpecError::EmptyAttrs => write!(f, "attribute list must not be empty"),
            SpecError::BadCursor(msg) => write!(f, "bad cursor: {msg}"),
            SpecError::BadFormat(name) => write!(f, "unknown format `{name}` (csv|jsonl)"),
            SpecError::BadField(msg) => write!(f, "bad field: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A reference to a schema attribute: by name (the usual JSON/CLI form) or
/// by index (programmatic use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrRef {
    /// The attribute's schema name.
    Name(String),
    /// The attribute's 0-based schema index.
    Index(usize),
}

impl AttrRef {
    /// Resolves to a schema index. Names are matched first; a name that
    /// matches no attribute but is a decimal index in range resolves as an
    /// index — evidence objects (JSON keys are always strings) carry
    /// [`AttrRef::Index`] references as digit strings.
    ///
    /// # Errors
    /// [`SpecError::UnknownAttribute`] when the name/index matches nothing.
    pub fn resolve(&self, schema: &Schema) -> Result<usize, SpecError> {
        match self {
            AttrRef::Name(name) => match schema.index_of(name) {
                Some(index) => Ok(index),
                None => match name.parse::<usize>() {
                    Ok(index) if index < schema.len() => Ok(index),
                    _ => Err(SpecError::UnknownAttribute(name.clone())),
                },
            },
            AttrRef::Index(index) => {
                if *index < schema.len() {
                    Ok(*index)
                } else {
                    Err(SpecError::UnknownAttribute(index.to_string()))
                }
            }
        }
    }

    fn from_json(json: &Json) -> Result<Self, SpecError> {
        if let Some(name) = json.as_str() {
            return Ok(AttrRef::Name(name.to_string()));
        }
        if let Some(index) = json.as_usize() {
            return Ok(AttrRef::Index(index));
        }
        Err(SpecError::BadField("attribute references must be names or indices".into()))
    }

    fn to_json(&self) -> Json {
        match self {
            AttrRef::Name(name) => Json::String(name.clone()),
            AttrRef::Index(index) => Json::from_usize(*index),
        }
    }

    /// The reference as a JSON object key (evidence maps): the name, or the
    /// index as a digit string (round-tripped by [`AttrRef::resolve`]'s
    /// numeric fallback).
    fn key(&self) -> String {
        match self {
            AttrRef::Name(name) => name.clone(),
            AttrRef::Index(index) => index.to_string(),
        }
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrRef::Name(name) => write!(f, "{name}"),
            AttrRef::Index(index) => write!(f, "#{index}"),
        }
    }
}

impl From<&str> for AttrRef {
    fn from(name: &str) -> Self {
        AttrRef::Name(name.to_string())
    }
}

impl From<String> for AttrRef {
    fn from(name: String) -> Self {
        AttrRef::Name(name)
    }
}

impl From<usize> for AttrRef {
    fn from(index: usize) -> Self {
        AttrRef::Index(index)
    }
}

/// An evidence value: a domain label (`"south"`, or the synthesised
/// `"v3"` form for unlabelled domains) or a raw domain code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueRef {
    /// A display label, matched against the attribute's domain labels (and
    /// the `v{code}` fallback labels of unlabelled domains). A label that is
    /// all digits is also accepted as a raw code.
    Label(String),
    /// A raw domain code.
    Code(u32),
}

impl ValueRef {
    /// Resolves to a domain code of attribute `attr`.
    ///
    /// # Errors
    /// [`SpecError::UnknownValue`] when the label/code is outside the
    /// attribute's domain.
    pub fn resolve(&self, schema: &Schema, attr: usize) -> Result<u32, SpecError> {
        let attribute = schema.attribute(attr);
        let domain = attribute.domain();
        let fail =
            |value: String| SpecError::UnknownValue { attr: attribute.name().to_string(), value };
        match self {
            ValueRef::Code(code) => {
                if domain.contains(*code) {
                    Ok(*code)
                } else {
                    Err(fail(code.to_string()))
                }
            }
            ValueRef::Label(label) => {
                if let Some(code) = domain.code_of(label) {
                    return Ok(code);
                }
                // The `v{code}` display labels of unlabelled domains, then a
                // bare numeric code.
                let numeric = label.strip_prefix('v').unwrap_or(label);
                match numeric.parse::<u32>() {
                    Ok(code) if domain.contains(code) => Ok(code),
                    _ => Err(fail(label.clone())),
                }
            }
        }
    }

    /// Parses the evidence value given for attribute `attr`: a label or a
    /// non-negative integer code.
    fn from_json(attr: &str, json: &Json) -> Result<Self, SpecError> {
        if let Some(label) = json.as_str() {
            return Ok(ValueRef::Label(label.to_string()));
        }
        if let Some(code) = json.as_usize() {
            // A code above u32::MAX is outside every domain; it must not wrap
            // onto a valid one.
            return u32::try_from(code).map(ValueRef::Code).map_err(|_| SpecError::UnknownValue {
                attr: attr.to_string(),
                value: code.to_string(),
            });
        }
        Err(SpecError::BadField("evidence values must be labels or codes".into()))
    }

    fn to_json(&self) -> Json {
        match self {
            ValueRef::Label(label) => Json::String(label.clone()),
            ValueRef::Code(code) => Json::from_usize(*code as usize),
        }
    }
}

impl From<&str> for ValueRef {
    fn from(label: &str) -> Self {
        ValueRef::Label(label.to_string())
    }
}

impl From<u32> for ValueRef {
    fn from(code: u32) -> Self {
        ValueRef::Code(code)
    }
}

/// Wire format of a streamed synthesis response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RowFormat {
    /// `text/csv`: header line, then one comma-joined label row per tuple.
    #[default]
    Csv,
    /// `application/x-ndjson`: one `{"attr": "label", …}` object per line.
    Jsonl,
}

impl RowFormat {
    /// Parses a format name (`None` defaults to CSV; both `jsonl` and
    /// `ndjson` name the newline-delimited JSON format).
    ///
    /// # Errors
    /// Returns [`SpecError::BadFormat`] naming the unknown format.
    pub fn parse(raw: Option<&str>) -> Result<Self, SpecError> {
        match raw {
            None | Some("csv") => Ok(RowFormat::Csv),
            Some("jsonl" | "ndjson") => Ok(RowFormat::Jsonl),
            Some(other) => Err(SpecError::BadFormat(other.to_string())),
        }
    }

    /// The canonical name ([`RowFormat::parse`] accepts it back).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RowFormat::Csv => "csv",
            RowFormat::Jsonl => "jsonl",
        }
    }

    /// The response `Content-Type`.
    #[must_use]
    pub fn content_type(self) -> &'static str {
        match self {
            RowFormat::Csv => "text/csv",
            RowFormat::Jsonl => "application/x-ndjson",
        }
    }

    /// The bytes that precede the first row (the CSV header over the
    /// projected attributes; nothing for JSONL). `projection = None` means
    /// every attribute in schema order.
    #[must_use]
    pub fn header(self, schema: &Schema, projection: Option<&[usize]>) -> String {
        match self {
            RowFormat::Csv => {
                let names: Vec<&str> = projected_attrs(schema, projection)
                    .map(|attr| schema.attribute(attr).name())
                    .collect();
                format!("{}\n", names.join(","))
            }
            RowFormat::Jsonl => String::new(),
        }
    }

    /// Renders one chunk of row-major tuples whose columns are the
    /// projected attributes (full schema width when `projection` is
    /// `None`). CSV output is byte-compatible with
    /// `privbayes_data::csv::write_csv` restricted to those columns.
    ///
    /// Builds a [`RowRenderer`] per call and renders each tuple as
    /// [`RowRenderer::render_into`] renders a flat row; a stream that
    /// renders many chunks builds one renderer and reuses it.
    ///
    /// # Panics
    /// Panics if a tuple is narrower than the projection or holds a code
    /// outside its attribute's domain.
    #[must_use]
    pub fn render(
        self,
        schema: &Schema,
        projection: Option<&[usize]>,
        rows: &[Vec<u32>],
    ) -> String {
        let renderer = RowRenderer::new(self, schema, projection);
        let mut out = Vec::new();
        for tuple in rows {
            renderer.render_row(tuple, &mut out);
        }
        String::from_utf8(out).expect("fragments are whole UTF-8 strings")
    }
}

/// A row renderer for one `(format, schema, projection)`: every cell a
/// projected column can hold is rendered once, up front, so rendering a row
/// appends one pre-rendered slice per cell.
///
/// A CSV cell is its label, after a `,` for every column but the first. A
/// JSONL cell is its `"name":"label"` member, after a `,` for every column
/// but the first, escaped by the artifact writer
/// ([`privbayes_model::json::write_escaped`]); each JSONL row is wrapped in
/// `{` … `}`. Unlabelled domains render the `v{code}` labels of
/// [`privbayes_data::Domain::label`].
#[derive(Debug)]
pub struct RowRenderer {
    /// Bytes that open every row (`{` for JSONL).
    open: &'static [u8],
    /// Bytes that close every row (`}\n` for JSONL, `\n` for CSV).
    close: &'static [u8],
    /// Every cell fragment of every projected column, back to back.
    fragments: Vec<u8>,
    /// Per projected column, the offset in `fragments` where each code's
    /// fragment starts, plus one final end offset.
    starts: Vec<Vec<usize>>,
    /// Bytes of the longest row this renderer can produce.
    max_row_bytes: usize,
}

impl RowRenderer {
    /// Pre-renders the cells of the projected attributes (every attribute
    /// in schema order when `projection` is `None`).
    #[must_use]
    pub fn new(format: RowFormat, schema: &Schema, projection: Option<&[usize]>) -> Self {
        use std::fmt::Write as _;
        let mut fragments = String::new();
        let mut starts = Vec::new();
        let mut label = String::new();
        for (slot, attr) in projected_attrs(schema, projection).enumerate() {
            let attribute = schema.attribute(attr);
            let domain = attribute.domain();
            let mut member = String::new();
            if format == RowFormat::Jsonl {
                privbayes_model::json::write_escaped(attribute.name(), &mut member);
                member.push(':');
            }
            let mut column = Vec::with_capacity(domain.size() + 1);
            for code in domain.codes() {
                column.push(fragments.len());
                if slot > 0 {
                    fragments.push(',');
                }
                let text = match domain.labels() {
                    Some(labels) => labels[code as usize].as_str(),
                    None => {
                        label.clear();
                        write!(label, "v{code}").expect("writing to a String cannot fail");
                        label.as_str()
                    }
                };
                match format {
                    RowFormat::Csv => fragments.push_str(text),
                    RowFormat::Jsonl => {
                        fragments.push_str(&member);
                        privbayes_model::json::write_escaped(text, &mut fragments);
                    }
                }
            }
            column.push(fragments.len());
            starts.push(column);
        }
        let (open, close): (&[u8], &[u8]) = match format {
            RowFormat::Csv => (b"", b"\n"),
            RowFormat::Jsonl => (b"{", b"}\n"),
        };
        let widest_cells: usize = starts
            .iter()
            .map(|column| column.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0))
            .sum();
        let max_row_bytes = open.len() + widest_cells + close.len();
        Self { open, close, fragments: fragments.into_bytes(), starts, max_row_bytes }
    }

    /// Bytes of the longest row this renderer can produce: a buffer of
    /// `rows × max_row_bytes()` bytes holds any `rows` rendered rows.
    #[must_use]
    pub fn max_row_bytes(&self) -> usize {
        self.max_row_bytes
    }

    /// Appends the rendering of `rows` to `out`. `rows` holds tuples back
    /// to back, row-major, each with one code per projected attribute in
    /// projection order (the layout `privbayes::RowStream::fill_chunk`
    /// writes).
    ///
    /// # Panics
    /// Panics if the renderer has no columns, `rows` is not a whole number
    /// of tuples, or a code is outside its attribute's domain.
    pub fn render_into(&self, rows: &[u32], out: &mut Vec<u8>) {
        let width = self.starts.len();
        assert_eq!(rows.len() % width, 0, "rows must be whole tuples of width {width}");
        for tuple in rows.chunks_exact(width) {
            self.render_row(tuple, out);
        }
    }

    /// Appends one row: the first codes of `tuple`, one per column.
    #[inline]
    fn render_row(&self, tuple: &[u32], out: &mut Vec<u8>) {
        out.extend_from_slice(self.open);
        for (column, &code) in self.starts.iter().zip(&tuple[..self.starts.len()]) {
            let code = code as usize;
            out.extend_from_slice(&self.fragments[column[code]..column[code + 1]]);
        }
        out.extend_from_slice(self.close);
    }
}

/// The attribute indices a projection keeps, in yield order.
fn projected_attrs<'a>(
    schema: &Schema,
    projection: Option<&'a [usize]>,
) -> Box<dyn Iterator<Item = usize> + 'a> {
    match projection {
        Some(keep) => Box::new(keep.iter().copied()),
        None => Box::new(0..schema.len()),
    }
}

/// Prefix of generation-less cursor tokens (the original stable format).
const CURSOR_PREFIX: &str = "pbc1";

/// Prefix of generation-pinning cursor tokens.
const CURSOR_PREFIX_V2: &str = "pbc2";

/// A resume point in a synthesis stream: the stream's seed, the next row to
/// deliver, and (optionally) the model **generation** the stream started
/// on.
///
/// The token formats are **documented and stable**:
/// `pbc1-<seed as 16 hex digits>-<row in hex>` and
/// `pbc2-<seed as 16 hex digits>-<row in hex>-<generation in hex>`. A `/v1`
/// synth response reports its own start token in `X-PrivBayes-Cursor` (and
/// the effective seed in `X-PrivBayes-Seed`); a client that consumed `r`
/// complete data rows resumes by sending the same spec with the token's row
/// field advanced by `r` — typed clients simply build
/// `Cursor { seed, row: r, generation }`. `pbc1` tokens remain accepted and
/// resolve with no generation pin (the registry serves its current
/// generation).
///
/// Because every chunk's RNG stream is derived from `(seed, chunk index)`
/// alone, a stream resumed at row `r` yields exactly rows `r..` of the
/// uninterrupted stream — byte-identical once rendered (continuations skip
/// the CSV header). The generation pin extends that guarantee across model
/// hot-swaps: a `pbc2` resume keeps sampling the *same released model* the
/// stream started on, even after a refit has installed a newer generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// The seed the stream was started with.
    pub seed: u64,
    /// The next row (0-based) the resumed stream should deliver.
    pub row: u64,
    /// The model generation the stream started on (`None` for `pbc1`
    /// tokens: resume against whatever generation currently serves).
    pub generation: Option<u64>,
}

impl Cursor {
    /// Encodes the cursor as an opaque token (`pbc2` when a generation is
    /// pinned, `pbc1` otherwise).
    #[must_use]
    pub fn encode(&self) -> String {
        match self.generation {
            Some(generation) => {
                format!("{CURSOR_PREFIX_V2}-{:016x}-{:x}-{generation:x}", self.seed, self.row)
            }
            None => format!("{CURSOR_PREFIX}-{:016x}-{:x}", self.seed, self.row),
        }
    }

    /// Decodes a token produced by [`Cursor::encode`] (either version).
    ///
    /// # Errors
    /// Returns [`SpecError::BadCursor`] for any malformed token.
    pub fn decode(token: &str) -> Result<Self, SpecError> {
        let bad = || SpecError::BadCursor(format!("unparsable token `{token}`"));
        let mut parts = token.split('-');
        let versioned = match parts.next() {
            Some(CURSOR_PREFIX) => false,
            Some(CURSOR_PREFIX_V2) => true,
            _ => return Err(bad()),
        };
        let seed = parts.next().and_then(|p| u64::from_str_radix(p, 16).ok()).ok_or_else(bad)?;
        let row = parts.next().and_then(|p| u64::from_str_radix(p, 16).ok()).ok_or_else(bad)?;
        let generation = if versioned {
            Some(parts.next().and_then(|p| u64::from_str_radix(p, 16).ok()).ok_or_else(bad)?)
        } else {
            None
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        Ok(Self { seed, row, generation })
    }
}

impl fmt::Display for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.encode())
    }
}

/// A synthesis request: how many rows, from which seed, in which format,
/// conditioned on what, projecting which columns, resuming where.
///
/// Build with the `with_*`/[`SynthSpec::select`]/[`SynthSpec::where_eq`]
/// builders or parse from a JSON body, then [`SynthSpec::resolve`] against
/// the model's schema. The **default spec** (all fields unset) reproduces
/// the legacy unconditional full-width stream byte for byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthSpec {
    /// Rows of the (unresumed) stream; `None` uses the model's
    /// `source_rows`.
    pub rows: Option<usize>,
    /// RNG seed; `None` lets the server draw one (reported back via the
    /// `X-PrivBayes-Seed` header so the stream stays resumable).
    pub seed: Option<u64>,
    /// Output format.
    pub format: RowFormat,
    /// Columns to return, in order (empty = all attributes).
    pub project: Vec<AttrRef>,
    /// Evidence clamps: each sampled row carries these attribute values and
    /// the rest of the row follows the model conditioned on them.
    pub evidence: Vec<(AttrRef, ValueRef)>,
    /// Resume point from an earlier interrupted stream of the same spec.
    pub cursor: Option<Cursor>,
}

impl SynthSpec {
    /// An empty spec (server defaults everywhere).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the row count.
    #[must_use]
    pub fn with_rows(mut self, rows: usize) -> Self {
        self.rows = Some(rows);
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the output format.
    #[must_use]
    pub fn with_format(mut self, format: RowFormat) -> Self {
        self.format = format;
        self
    }

    /// Appends a projected column.
    #[must_use]
    pub fn select(mut self, attr: impl Into<AttrRef>) -> Self {
        self.project.push(attr.into());
        self
    }

    /// Appends an evidence clamp.
    #[must_use]
    pub fn where_eq(mut self, attr: impl Into<AttrRef>, value: impl Into<ValueRef>) -> Self {
        self.evidence.push((attr.into(), value.into()));
        self
    }

    /// Sets the resume cursor.
    #[must_use]
    pub fn with_cursor(mut self, cursor: Cursor) -> Self {
        self.cursor = Some(cursor);
        self
    }

    /// Serialises the spec as the `/v1` synth request body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        if let Some(rows) = self.rows {
            fields.push(("rows".into(), Json::from_usize(rows)));
        }
        if let Some(seed) = self.seed {
            // Seeds the server drew and reported back can exceed 2^53.
            fields.push(("seed".into(), seed_to_json(seed)));
        }
        if self.format != RowFormat::default() {
            fields.push(("format".into(), Json::String(self.format.name().to_string())));
        }
        if !self.project.is_empty() {
            fields.push((
                "project".into(),
                Json::Array(self.project.iter().map(AttrRef::to_json).collect()),
            ));
        }
        if !self.evidence.is_empty() {
            fields.push((
                "evidence".into(),
                Json::Object(
                    self.evidence
                        .iter()
                        .map(|(attr, value)| (attr.key(), value.to_json()))
                        .collect(),
                ),
            ));
        }
        if let Some(cursor) = &self.cursor {
            fields.push(("cursor".into(), Json::String(cursor.encode())));
        }
        Json::Object(fields)
    }

    /// Parses a `/v1` synth request body. Unknown top-level fields are
    /// rejected so typos fail loudly instead of silently applying defaults.
    ///
    /// # Errors
    /// Returns [`SpecError::BadField`] for mistyped/unknown fields,
    /// [`SpecError::BadFormat`] / [`SpecError::BadCursor`] for those fields.
    pub fn from_json(json: &Json) -> Result<Self, SpecError> {
        let fields = json
            .as_object()
            .ok_or_else(|| SpecError::BadField("request body must be a JSON object".into()))?;
        let mut spec = Self::new();
        for (key, value) in fields {
            match key.as_str() {
                "rows" => {
                    spec.rows =
                        Some(value.as_usize().ok_or_else(|| SpecError::BadField("rows".into()))?);
                }
                "seed" => {
                    spec.seed = Some(
                        seed_from_json(value).ok_or_else(|| SpecError::BadField("seed".into()))?,
                    );
                }
                "format" => {
                    let name =
                        value.as_str().ok_or_else(|| SpecError::BadField("format".into()))?;
                    spec.format = RowFormat::parse(Some(name))?;
                }
                "project" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| SpecError::BadField("project must be an array".into()))?;
                    spec.project =
                        items.iter().map(AttrRef::from_json).collect::<Result<_, _>>()?;
                }
                "evidence" => {
                    let pairs = value.as_object().ok_or_else(|| {
                        SpecError::BadField("evidence must be an object of attr: value".into())
                    })?;
                    spec.evidence = pairs
                        .iter()
                        .map(|(attr, v)| {
                            Ok((AttrRef::Name(attr.clone()), ValueRef::from_json(attr, v)?))
                        })
                        .collect::<Result<_, SpecError>>()?;
                }
                "cursor" => {
                    let token =
                        value.as_str().ok_or_else(|| SpecError::BadField("cursor".into()))?;
                    spec.cursor = Some(Cursor::decode(token)?);
                }
                other => return Err(SpecError::BadField(format!("unknown field `{other}`"))),
            }
        }
        Ok(spec)
    }

    /// Resolves names/labels against `schema` into indices/codes, checks
    /// duplicates and cursor/seed consistency, and returns the fully-typed
    /// request. This is the **only** validation gate: a `ResolvedSynth` is
    /// servable as-is.
    ///
    /// # Errors
    /// Any [`SpecError`] named by the failing field.
    pub fn resolve(&self, schema: &Schema) -> Result<ResolvedSynth, SpecError> {
        let mut projection: Vec<usize> = Vec::with_capacity(self.project.len());
        for attr in &self.project {
            let index = attr.resolve(schema)?;
            if projection.contains(&index) {
                return Err(SpecError::DuplicateAttribute(
                    schema.attribute(index).name().to_string(),
                ));
            }
            projection.push(index);
        }
        let mut evidence: Vec<(usize, u32)> = Vec::with_capacity(self.evidence.len());
        for (attr, value) in &self.evidence {
            let index = attr.resolve(schema)?;
            if evidence.iter().any(|&(a, _)| a == index) {
                return Err(SpecError::DuplicateAttribute(
                    schema.attribute(index).name().to_string(),
                ));
            }
            evidence.push((index, value.resolve(schema, index)?));
        }
        let (seed, start_row) = match (self.seed, self.cursor) {
            (Some(seed), Some(cursor)) if cursor.seed != seed => {
                return Err(SpecError::BadCursor(format!(
                    "cursor seed {} disagrees with spec seed {seed}",
                    cursor.seed
                )));
            }
            (seed, Some(cursor)) => (seed.or(Some(cursor.seed)), cursor.row as usize),
            (seed, None) => (seed, 0),
        };
        Ok(ResolvedSynth {
            rows: self.rows,
            seed,
            format: self.format,
            projection: if projection.is_empty() { None } else { Some(projection) },
            evidence,
            start_row,
        })
    }
}

/// A [`SynthSpec`] resolved against a schema: indices and codes only, ready
/// to drive `CompiledSampler::stream_spec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedSynth {
    /// Requested rows (`None` = the model's `source_rows`).
    pub rows: Option<usize>,
    /// Requested (or cursor-carried) seed; `None` = the server draws one.
    pub seed: Option<u64>,
    /// Output format.
    pub format: RowFormat,
    /// Projected columns in yield order (`None` = all).
    pub projection: Option<Vec<usize>>,
    /// Evidence clamps as `(attribute index, domain code)`.
    pub evidence: Vec<(usize, u32)>,
    /// Resume offset (0 for fresh streams).
    pub start_row: usize,
}

impl ResolvedSynth {
    /// The core sampler spec for a stream of `rows` total rows.
    #[must_use]
    pub fn sample_spec(&self, rows: usize) -> SampleSpec {
        SampleSpec {
            rows,
            evidence: self.evidence.clone(),
            projection: self.projection.clone(),
            start_row: self.start_row,
        }
    }
}

/// A marginal query against the released θ: the joint distribution of
/// `attrs` under the model, answered **exactly** (no sampling, no privacy
/// cost — pure post-processing of the released conditionals) via
/// `privbayes::inference::theta_projection`, whose fixed operation order
/// makes answers bit-reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MarginalQuery {
    /// The queried attributes; the answer's axes follow this order.
    pub attrs: Vec<AttrRef>,
}

impl MarginalQuery {
    /// An empty query (add attributes with [`MarginalQuery::over`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a queried attribute.
    #[must_use]
    pub fn over(mut self, attr: impl Into<AttrRef>) -> Self {
        self.attrs.push(attr.into());
        self
    }

    /// Serialises the query as the `/v1` query request body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![(
            "attrs".to_string(),
            Json::Array(self.attrs.iter().map(AttrRef::to_json).collect()),
        )])
    }

    /// Parses a `/v1` query request body (`{"attrs": [...]}`).
    ///
    /// # Errors
    /// Returns [`SpecError::BadField`] for mistyped/unknown fields.
    pub fn from_json(json: &Json) -> Result<Self, SpecError> {
        let fields = json
            .as_object()
            .ok_or_else(|| SpecError::BadField("request body must be a JSON object".into()))?;
        let mut query = Self::new();
        let mut seen_attrs = false;
        for (key, value) in fields {
            match key.as_str() {
                "attrs" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| SpecError::BadField("attrs must be an array".into()))?;
                    query.attrs = items.iter().map(AttrRef::from_json).collect::<Result<_, _>>()?;
                    seen_attrs = true;
                }
                other => return Err(SpecError::BadField(format!("unknown field `{other}`"))),
            }
        }
        if !seen_attrs {
            return Err(SpecError::BadField("missing `attrs`".into()));
        }
        Ok(query)
    }

    /// Resolves to unique schema indices, preserving order.
    ///
    /// # Errors
    /// [`SpecError::EmptyAttrs`], [`SpecError::UnknownAttribute`], or
    /// [`SpecError::DuplicateAttribute`].
    pub fn resolve(&self, schema: &Schema) -> Result<Vec<usize>, SpecError> {
        if self.attrs.is_empty() {
            return Err(SpecError::EmptyAttrs);
        }
        let mut attrs: Vec<usize> = Vec::with_capacity(self.attrs.len());
        for attr in &self.attrs {
            let index = attr.resolve(schema)?;
            if attrs.contains(&index) {
                return Err(SpecError::DuplicateAttribute(
                    schema.attribute(index).name().to_string(),
                ));
            }
            attrs.push(index);
        }
        Ok(attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::binary("smoker"),
            Attribute::categorical_labelled("region", ["north", "south", "west"]).unwrap(),
            Attribute::categorical("age", 8).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn attr_and_value_resolution() {
        let schema = schema();
        assert_eq!(AttrRef::from("region").resolve(&schema).unwrap(), 1);
        assert_eq!(AttrRef::from(2usize).resolve(&schema).unwrap(), 2);
        assert!(AttrRef::from("bogus").resolve(&schema).is_err());
        assert!(AttrRef::from(9usize).resolve(&schema).is_err());
        assert_eq!(ValueRef::from("south").resolve(&schema, 1).unwrap(), 1);
        assert_eq!(ValueRef::from(2u32).resolve(&schema, 1).unwrap(), 2);
        // Unlabelled domains accept the synthesised v{code} labels and bare
        // numeric codes.
        assert_eq!(ValueRef::from("v5").resolve(&schema, 2).unwrap(), 5);
        assert_eq!(ValueRef::from("5").resolve(&schema, 2).unwrap(), 5);
        assert!(ValueRef::from("v9").resolve(&schema, 2).is_err());
        assert!(ValueRef::from(3u32).resolve(&schema, 0).is_err());
    }

    #[test]
    fn synth_spec_round_trips_through_json() {
        let spec = SynthSpec::new()
            .with_rows(500)
            .with_seed(7)
            .with_format(RowFormat::Jsonl)
            .select("region")
            .select("smoker")
            .where_eq("smoker", "v1")
            .with_cursor(Cursor { seed: 7, row: 2048, generation: Some(3) });
        let restored = SynthSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(restored, spec);
        // The default spec serialises to an empty object and back.
        assert_eq!(SynthSpec::from_json(&SynthSpec::new().to_json()).unwrap(), SynthSpec::new());
    }

    #[test]
    fn synth_spec_resolution_and_errors() {
        let schema = schema();
        let resolved = SynthSpec::new()
            .with_rows(100)
            .select("age")
            .select(0usize)
            .where_eq("region", "west")
            .resolve(&schema)
            .unwrap();
        assert_eq!(resolved.projection, Some(vec![2, 0]));
        assert_eq!(resolved.evidence, vec![(1, 2)]);
        assert_eq!(resolved.start_row, 0);

        let e = SynthSpec::new().select("nope").resolve(&schema).unwrap_err();
        assert!(matches!(e, SpecError::UnknownAttribute(_)), "{e}");
        let e = SynthSpec::new().select("age").select("age").resolve(&schema).unwrap_err();
        assert!(matches!(e, SpecError::DuplicateAttribute(_)), "{e}");
        let e = SynthSpec::new().where_eq("region", "east").resolve(&schema).unwrap_err();
        assert!(matches!(e, SpecError::UnknownValue { .. }), "{e}");
        let e = SynthSpec::new()
            .where_eq("smoker", 0u32)
            .where_eq("smoker", 1u32)
            .resolve(&schema)
            .unwrap_err();
        assert!(matches!(e, SpecError::DuplicateAttribute(_)), "{e}");
    }

    #[test]
    fn large_seeds_round_trip_through_json() {
        // Seeds at or above 2^53 cannot ride a f64-backed JSON number; they
        // travel as decimal strings and parse back exactly — the path a
        // client takes when pinning a server-drawn seed.
        for seed in [u64::MAX, 1 << 53, (1 << 53) - 1, 7] {
            let spec = SynthSpec::new().with_seed(seed);
            let restored = SynthSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(restored.seed, Some(seed), "seed {seed}");
        }
        // Explicit string form is accepted directly too.
        let body = Json::parse(&format!("{{\"seed\": \"{}\"}}", u64::MAX)).unwrap();
        assert_eq!(SynthSpec::from_json(&body).unwrap().seed, Some(u64::MAX));
        assert!(SynthSpec::from_json(&Json::parse("{\"seed\": \"nope\"}").unwrap()).is_err());
    }

    #[test]
    fn index_keyed_evidence_round_trips_through_json() {
        // Evidence objects carry index refs as digit-string keys; they must
        // come back resolvable against the schema.
        let schema = schema();
        let spec = SynthSpec::new().where_eq(1usize, "south");
        let restored = SynthSpec::from_json(&spec.to_json()).unwrap();
        let resolved = restored.resolve(&schema).unwrap();
        assert_eq!(resolved.evidence, vec![(1, 1)]);
        // Out-of-range digit keys still fail loudly.
        let spec = SynthSpec::new().where_eq(9usize, 0u32);
        let restored = SynthSpec::from_json(&spec.to_json()).unwrap();
        assert!(matches!(restored.resolve(&schema), Err(SpecError::UnknownAttribute(_))));
    }

    #[test]
    fn cursor_round_trip_and_seed_consistency() {
        let cursor = Cursor { seed: 0xDEAD_BEEF, row: 4096, generation: None };
        assert_eq!(Cursor::decode(&cursor.encode()).unwrap(), cursor);
        assert!(Cursor::decode("garbage").is_err());
        assert!(Cursor::decode("pbc1-zz-0").is_err());
        assert!(Cursor::decode("pbc1-0-0-0").is_err());

        let schema = schema();
        let resolved = SynthSpec::new().with_cursor(cursor).resolve(&schema).unwrap();
        assert_eq!(resolved.seed, Some(0xDEAD_BEEF));
        assert_eq!(resolved.start_row, 4096);
        let e = SynthSpec::new().with_seed(1).with_cursor(cursor).resolve(&schema).unwrap_err();
        assert!(matches!(e, SpecError::BadCursor(_)), "{e}");
    }

    #[test]
    fn generation_cursors_round_trip_and_pin_the_resolved_spec() {
        let cursor = Cursor { seed: 5, row: 100, generation: Some(0xA7) };
        let token = cursor.encode();
        assert!(token.starts_with("pbc2-"), "{token}");
        assert_eq!(Cursor::decode(&token).unwrap(), cursor);
        // pbc2 demands the generation field; pbc1 forbids it.
        assert!(Cursor::decode("pbc2-0-0").is_err());
        assert!(Cursor::decode("pbc2-0-0-zz").is_err());
        assert!(Cursor::decode("pbc2-0-0-0-0").is_err());

        let schema = schema();
        let resolved = SynthSpec::new().with_cursor(cursor).resolve(&schema).unwrap();
        assert_eq!(resolved.seed, Some(5));
        assert_eq!(resolved.start_row, 100);
    }

    proptest::proptest! {
        /// encode → decode is the identity for every (seed, row) pair, and
        /// the token always carries the documented version prefix.
        #[test]
        fn prop_cursor_encode_decode_round_trips(
            seed in proptest::any::<u64>(),
            row in proptest::any::<u64>(),
            pinned in proptest::any::<bool>(),
            gen_value in proptest::any::<u64>(),
        ) {
            let generation = pinned.then_some(gen_value);
            let cursor = Cursor { seed, row, generation };
            let token = cursor.encode();
            let prefix = if generation.is_some() { "pbc2-" } else { "pbc1-" };
            proptest::prop_assert!(token.starts_with(prefix), "token `{token}`");
            proptest::prop_assert_eq!(Cursor::decode(&token).unwrap(), cursor);
        }

        /// Decoding is total: an arbitrary printable string either decodes
        /// or returns the typed error — it never panics.
        #[test]
        fn prop_cursor_decode_never_panics(token in "\\PC{0,48}") {
            match Cursor::decode(&token) {
                // Anything that decodes must re-encode to an equivalent
                // cursor (the token itself may be non-canonical, e.g.
                // unpadded hex).
                Ok(c) => proptest::prop_assert_eq!(Cursor::decode(&c.encode()).unwrap(), c),
                Err(e) => proptest::prop_assert!(matches!(e, SpecError::BadCursor(_)), "{e}"),
            }
        }

        /// Near-miss `pbc1-` tokens (wrong field count, non-hex digits,
        /// empty fields) are rejected with [`SpecError::BadCursor`]
        /// specifically — never another variant, never a panic.
        #[test]
        fn prop_malformed_pbc1_tokens_get_the_typed_error(body in "[0-9a-fxg-]{0,32}") {
            let token = format!("pbc1-{body}");
            let fields: Vec<&str> = body.split('-').collect();
            let well_formed = fields.len() == 2
                && !fields[0].is_empty()
                && !fields[1].is_empty()
                && fields.iter().all(|f| {
                    f.chars().all(|c| c.is_ascii_hexdigit()) && u64::from_str_radix(f, 16).is_ok()
                });
            match Cursor::decode(&token) {
                Ok(c) => {
                    proptest::prop_assert!(well_formed, "decoded malformed `{token}` to {c:?}");
                }
                Err(e) => {
                    proptest::prop_assert!(!well_formed, "rejected well-formed `{token}`: {e}");
                    proptest::prop_assert!(matches!(e, SpecError::BadCursor(_)), "{e}");
                }
            }
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let body = Json::parse(r#"{"rows": 10, "frobnicate": 1}"#).unwrap();
        let e = SynthSpec::from_json(&body).unwrap_err();
        assert!(e.to_string().contains("frobnicate"), "{e}");
        let body = Json::parse(r#"{"attrs": ["a"], "x": 1}"#).unwrap();
        assert!(MarginalQuery::from_json(&body).is_err());
    }

    #[test]
    fn marginal_query_round_trip_and_resolution() {
        let schema = schema();
        let query = MarginalQuery::new().over("region").over("smoker");
        let restored = MarginalQuery::from_json(&query.to_json()).unwrap();
        assert_eq!(restored, query);
        assert_eq!(query.resolve(&schema).unwrap(), vec![1, 0]);
        assert!(matches!(MarginalQuery::new().resolve(&schema), Err(SpecError::EmptyAttrs)));
        assert!(MarginalQuery::new().over("region").over(1usize).resolve(&schema).is_err());
    }

    #[test]
    fn format_parsing_and_content_types() {
        assert_eq!(RowFormat::parse(None).unwrap(), RowFormat::Csv);
        assert_eq!(RowFormat::parse(Some("csv")).unwrap(), RowFormat::Csv);
        assert_eq!(RowFormat::parse(Some("jsonl")).unwrap(), RowFormat::Jsonl);
        assert_eq!(RowFormat::parse(Some("ndjson")).unwrap(), RowFormat::Jsonl);
        assert!(RowFormat::parse(Some("xml")).is_err());
        assert_eq!(RowFormat::Csv.content_type(), "text/csv");
        assert_eq!(RowFormat::Jsonl.content_type(), "application/x-ndjson");
    }

    #[test]
    fn projected_rendering() {
        let schema = schema();
        assert_eq!(RowFormat::Csv.header(&schema, None), "smoker,region,age\n");
        assert_eq!(RowFormat::Csv.header(&schema, Some(&[1, 0])), "region,smoker\n");
        // Projected tuples carry projection-width columns in yield order.
        let out = RowFormat::Csv.render(&schema, Some(&[1, 0]), &[vec![2, 1]]);
        assert_eq!(out, "west,v1\n");
        let out = RowFormat::Jsonl.render(&schema, Some(&[1]), &[vec![0]]);
        assert_eq!(out, "{\"region\":\"north\"}\n");
    }

    /// Two columns, one with default `v{code}` labels.
    fn two_columns() -> Schema {
        Schema::new(vec![
            Attribute::binary("smoker"),
            Attribute::categorical_labelled("region", ["north", "south"]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn csv_matches_write_csv_bytes() {
        let schema = two_columns();
        let rows = vec![vec![0, 1], vec![1, 0]];
        let data = privbayes_data::Dataset::from_rows(schema.clone(), &rows).unwrap();
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
        let schema = two_columns();
        let out = RowFormat::Jsonl.render(&schema, None, &[vec![1, 0]]);
        // Unlabelled domains print their default `v{code}` labels, exactly
        // as the CSV writer does.
        assert_eq!(out, "{\"smoker\":\"v1\",\"region\":\"north\"}\n");
        assert_eq!(RowFormat::Jsonl.header(&schema, None), "");
    }

    #[test]
    fn projection_restricts_and_reorders_columns() {
        let schema = two_columns();
        assert_eq!(RowFormat::Csv.header(&schema, Some(&[1, 0])), "region,smoker\n");
        let out = RowFormat::Csv.render(&schema, Some(&[1, 0]), &[vec![0, 1]]);
        assert_eq!(out, "north,v1\n");
    }
}
