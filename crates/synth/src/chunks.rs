//! The chunk driver shared by the server's streams and the CLI's `synth`:
//! every chunk of a [`RowStream`] sampled and rendered on up to `threads`
//! threads, and handed to the caller in chunk order.
//!
//! A chunk's rows depend only on the stream and the chunk's index (each
//! chunk draws from its own RNG stream), so which thread renders a chunk
//! never changes a byte. The `k`-th chunk of the stream is rendered by
//! thread `k mod T`, `T = min(threads, chunks)`: the calling thread takes
//! `k ≡ 0`, and each of `T − 1` scoped helpers one other residue. The
//! calling thread runs the sink on every chunk in turn, its own and the
//! helpers', so the caller's output sees one chunk at a time, in order.
//!
//! The calling thread allocates every buffer a helper uses before it
//! spawns the helper: a tuple, a flat row buffer and two render buffers of
//! [`CHUNK_ROWS`] × [`RowRenderer::max_row_bytes`] bytes, which never grow.
//! The render buffers travel to the calling thread with their chunk and
//! back once the sink is done with them. Short-lived threads that allocate
//! leave memory behind in per-thread allocator arenas.

use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use privbayes::{RowStream, CHUNK_ROWS};

use crate::RowRenderer;

/// One rendered chunk, as the sink receives it.
#[derive(Debug)]
pub struct RenderedChunk {
    /// The chunk's rendered rows.
    pub bytes: Vec<u8>,
    /// Rows in the chunk.
    pub rows: usize,
    /// Time spent sampling the chunk, on whichever thread sampled it.
    pub sample: Duration,
    /// Time spent rendering the chunk, on whichever thread rendered it.
    pub render: Duration,
}

/// One thread's sampling scratch.
struct Scratch {
    tuple: Vec<u32>,
    rows: Vec<u32>,
}

impl Scratch {
    fn new(stream: &RowStream<'_>) -> Self {
        Self {
            tuple: vec![0; stream.schema().len()],
            rows: Vec::with_capacity(CHUNK_ROWS * stream.width()),
        }
    }

    /// Samples chunk `chunk` and renders it into `bytes`, which is cleared
    /// first.
    fn render(
        &mut self,
        stream: &RowStream<'_>,
        renderer: &RowRenderer,
        chunk: usize,
        mut bytes: Vec<u8>,
    ) -> RenderedChunk {
        let started = Instant::now();
        let rows = stream.fill_chunk(chunk, &mut self.tuple, &mut self.rows);
        let sampled = Instant::now();
        bytes.clear();
        renderer.render_into(&self.rows, &mut bytes);
        RenderedChunk { bytes, rows, sample: sampled - started, render: sampled.elapsed() }
    }
}

/// Renders every chunk [`RowStream::chunks`] lists with `renderer` on up to
/// `threads` threads (see the module docs) and calls `sink` on the calling
/// thread with each rendered chunk, strictly in chunk order. A stream of
/// one chunk spawns no thread.
///
/// When `sink` fails, no further chunk reaches it, and every helper has
/// ended before the error is returned.
///
/// # Errors
/// Returns the first error `sink` returns.
///
/// # Panics
/// A panic while sampling or rendering a chunk (a degenerate slice drawn
/// from, say) propagates to the caller, from a helper as from the calling
/// thread; a chunk that never arrives is never taken for the end of the
/// stream.
pub fn render_chunks<E>(
    stream: &RowStream<'_>,
    renderer: &RowRenderer,
    threads: usize,
    mut sink: impl FnMut(&RenderedChunk) -> Result<(), E>,
) -> Result<(), E> {
    let chunks = stream.chunks();
    let threads = threads.clamp(1, chunks.len().max(1));
    let buffer = || Vec::with_capacity(CHUNK_ROWS * renderer.max_row_bytes());
    let mut own = Scratch::new(stream);
    let mut bytes = buffer();
    let helpers: Vec<_> =
        (1..threads).map(|_| (Scratch::new(stream), [buffer(), buffer()])).collect();
    std::thread::scope(|scope| {
        // The calling thread's channel ends live in this closure, so a
        // return or an unwind drops them before the scope joins: a helper
        // then finds its channels closed and ends.
        let mut lanes = Vec::with_capacity(threads - 1);
        for (lane, (mut scratch, buffers)) in helpers.into_iter().enumerate() {
            let (done, done_rx) = sync_channel::<RenderedChunk>(2);
            let (free_tx, free) = sync_channel::<Vec<u8>>(2);
            for buffer in buffers {
                free_tx.send(buffer).expect("the channel holds both buffers");
            }
            let mine = chunks.clone().skip(lane + 1).step_by(threads);
            let helper = scope.spawn(move || {
                for chunk in mine {
                    let Ok(bytes) = free.recv() else { return };
                    if done.send(scratch.render(stream, renderer, chunk, bytes)).is_err() {
                        return;
                    }
                }
            });
            lanes.push((done_rx, free_tx, helper));
        }
        for (k, chunk) in chunks.enumerate() {
            if k % threads == 0 {
                let rendered = own.render(stream, renderer, chunk, bytes);
                sink(&rendered)?;
                bytes = rendered.bytes;
                continue;
            }
            let lane = k % threads - 1;
            let Ok(rendered) = lanes[lane].0.recv() else {
                // The helper ended before sending a chunk it owed, which it
                // does only by panicking: raise its panic here.
                let (_, _, helper) = lanes.swap_remove(lane);
                match helper.join() {
                    Err(panic) => std::panic::resume_unwind(panic),
                    Ok(()) => unreachable!("a helper ends early only once its channels close"),
                }
            };
            sink(&rendered)?;
            // A helper that has rendered its last chunk is gone; the buffer
            // is then dropped here.
            let _ = lanes[lane].1.send(rendered.bytes);
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RowFormat;
    use privbayes::conditionals::noisy_conditionals_general_engine;
    use privbayes::network::{ApPair, BayesianNetwork};
    use privbayes::{CompiledSampler, SampleSpec};
    use privbayes_data::{Attribute, Dataset, Schema};
    use privbayes_marginals::CountEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler() -> CompiledSampler {
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::categorical_labelled("b", ["x", "yy", "zzz"]).unwrap(),
            Attribute::binary("c"),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> =
            (0..300u32).map(|i| vec![i % 2, (i / 2) % 3, u32::from(i % 3 == 0)]).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![0, 1])],
            data.schema(),
        )
        .unwrap();
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(
            &engine,
            &net,
            Some(1.0),
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        model.compile(data.schema()).unwrap()
    }

    /// The stream's chunks as the iterator yields them, each rendered by
    /// `RowFormat::render`.
    fn iterated(sampler: &CompiledSampler, spec: &SampleSpec, format: RowFormat) -> Vec<String> {
        let stream = sampler.stream_spec(spec, &mut StdRng::seed_from_u64(17)).unwrap();
        stream
            .map(|chunk| format.render(sampler.schema(), spec.projection.as_deref(), &chunk))
            .collect()
    }

    #[test]
    fn every_thread_count_renders_the_iterators_chunks_in_order() {
        let sampler = sampler();
        let specs = [
            SampleSpec::rows(5 * CHUNK_ROWS + 17),
            SampleSpec::rows(5 * CHUNK_ROWS).with_evidence(vec![(2, 1)]),
            SampleSpec { start_row: 2 * CHUNK_ROWS + 5, ..SampleSpec::rows(4 * CHUNK_ROWS + 1) }
                .with_projection(vec![2, 1]),
            SampleSpec::rows(1),
            SampleSpec::rows(0),
        ];
        for spec in &specs {
            for format in [RowFormat::Csv, RowFormat::Jsonl] {
                let want = iterated(&sampler, spec, format);
                let renderer =
                    RowRenderer::new(format, sampler.schema(), spec.projection.as_deref());
                for threads in [1, 2, 3, 8] {
                    let stream = sampler.stream_spec(spec, &mut StdRng::seed_from_u64(17)).unwrap();
                    let mut got = Vec::new();
                    let mut rows = 0;
                    render_chunks(&stream, &renderer, threads, |chunk| {
                        assert!(chunk.bytes.len() <= CHUNK_ROWS * renderer.max_row_bytes());
                        rows += chunk.rows;
                        got.push(String::from_utf8(chunk.bytes.clone()).unwrap());
                        Ok::<(), ()>(())
                    })
                    .unwrap();
                    assert_eq!(got, want, "{spec:?} {format:?} at {threads} threads");
                    let yielded = spec.rows.saturating_sub(spec.start_row);
                    assert_eq!(rows, yielded, "{spec:?} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn a_failing_sink_stops_the_stream() {
        let sampler = sampler();
        let stream = sampler.stream_rows(9 * CHUNK_ROWS, &mut StdRng::seed_from_u64(5));
        let renderer = RowRenderer::new(RowFormat::Csv, sampler.schema(), None);
        for threads in [1, 3] {
            let mut seen = 0;
            let result = render_chunks(&stream, &renderer, threads, |_| {
                seen += 1;
                if seen == 4 {
                    Err("socket closed")
                } else {
                    Ok(())
                }
            });
            assert_eq!(result, Err("socket closed"), "{threads} threads");
            assert_eq!(seen, 4, "no chunk reaches a failed sink ({threads} threads)");
        }
    }
}
