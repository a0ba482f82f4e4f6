//! What a run derives from its seed — the Table-5 table shapes and request
//! seeds — and the bytes the output checks expect a stream to carry.

use privbayes_data::{Dataset, Schema};
use privbayes_datasets::GroundTruthNetwork;
use privbayes_synth::RowFormat;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the hidden networks the tables are drawn from. It is fixed, so
/// every workload seed loads the layers with the same dependency structure;
/// the workload seed draws the rows.
const NETWORK_SEED: u64 = 0x7AB1_E5EE_D000_0001;

/// The four evaluation datasets of the paper's Table 5, by shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Nltcs,
    Acs,
    Adult,
    Br2000,
}

impl Shape {
    pub const ALL: [Shape; 4] = [Shape::Nltcs, Shape::Acs, Shape::Adult, Shape::Br2000];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Nltcs => "nltcs",
            Shape::Acs => "acs",
            Shape::Adult => "adult",
            Shape::Br2000 => "br2000",
        }
    }

    /// Rows at the paper's size.
    pub fn rows(self) -> usize {
        match self {
            Shape::Nltcs => 21_574,
            Shape::Acs => 47_461,
            Shape::Adult => 45_222,
            Shape::Br2000 => 38_000,
        }
    }

    pub fn schema(self) -> Schema {
        match self {
            Shape::Nltcs => privbayes_datasets::nltcs::schema(),
            Shape::Acs => privbayes_datasets::acs::schema(),
            Shape::Adult => privbayes_datasets::adult::schema(),
            Shape::Br2000 => privbayes_datasets::br2000::schema(),
        }
    }

    /// Whether every attribute is binary, which sends the count engine's
    /// scans to its bit backend.
    pub fn binary(self) -> bool {
        matches!(self, Shape::Nltcs | Shape::Acs)
    }

    /// The table for `seed`, drawn with the generator parameters of
    /// `privbayes-datasets`.
    pub fn generate(self, seed: u64) -> Dataset {
        let schema = self.schema();
        let (parents, alpha) = if self.binary() { (3, 1.0) } else { (2, 0.8) };
        let tag = self as u64 + 1;
        let network = GroundTruthNetwork::random(
            &schema,
            parents,
            alpha,
            &mut StdRng::seed_from_u64(NETWORK_SEED ^ tag),
        );
        network.sample(self.rows(), &mut StdRng::seed_from_u64(mix(seed, tag)))
    }
}

/// SplitMix64 of `seed` under `salt`: independent streams from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic sequence of request seeds.
pub struct Seeds {
    state: u64,
}

impl Seeds {
    pub fn new(seed: u64, salt: u64) -> Self {
        Self { state: mix(seed, salt) }
    }

    /// The next seed, below 2^53 so it travels as an exact JSON number.
    pub fn draw(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state, 0) >> 11
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.draw() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The bytes a from-the-start stream of `data`'s rows carries: the format's
/// header, then every row.
pub fn rendered(format: RowFormat, data: &Dataset) -> Vec<u8> {
    let schema = data.schema();
    let rows: Vec<Vec<u32>> = (0..data.n()).map(|r| data.row(r)).collect();
    let mut out = format.header(schema, None).into_bytes();
    out.extend_from_slice(format.render(schema, None, &rows).as_bytes());
    out
}
