//! In-process replays for the traced run: a served stream regenerated with
//! the same sampler, seed and spec the server used, timed call by call into
//! the sampler (`stream_spec`, `next`) and the renderer
//! (`RowFormat::render`).

use privbayes::{CompiledSampler, SampleSpec};
use privbayes_synth::RowFormat;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

pub struct Replay {
    pub sampler_ms: f64,
    pub render_ms: f64,
    pub rows: usize,
    /// The bytes the stream carries: header, then every rendered chunk.
    pub bytes: Vec<u8>,
}

pub fn stream(
    tracer: &mut Tracer,
    op: u64,
    sampler: &CompiledSampler,
    spec: &SampleSpec,
    seed: u64,
    format: RowFormat,
) -> Result<Replay, String> {
    let parent = tracer.begin("replay.stream", op, None);
    let mut rng = StdRng::seed_from_u64(seed);
    let (stream, mut sampler_ms) =
        tracer.time("core.sampler.stream_spec", op, Some(parent), || {
            sampler.stream_spec(spec, &mut rng)
        });
    let mut stream = stream.map_err(|e| e.to_string())?;
    let schema = sampler.schema();
    let mut bytes = format.header(schema, None).into_bytes();
    let (mut render_ms, mut rows) = (0.0, 0);
    loop {
        let (chunk, ms) = tracer.time("core.sampler.next", op, Some(parent), || stream.next());
        sampler_ms += ms;
        let Some(chunk) = chunk else { break };
        rows += chunk.len();
        let (text, ms) =
            tracer.time("synth.render", op, Some(parent), || format.render(schema, None, &chunk));
        render_ms += ms;
        bytes.extend_from_slice(text.as_bytes());
    }
    tracer.end(parent);
    Ok(Replay { sampler_ms, render_ms, rows, bytes })
}
