//! Seeded workload generators.  A generator is a pure function of its seed:
//! it yields the client's request steps (privatize, report, estimate) and the
//! fixed key sets each workload serves.  The server receives only the frames
//! built from these steps.

use std::collections::{BTreeSet, VecDeque};

use cpm_core::{Alpha, ObjectiveKey, PropertySet, SpecKey};
use cpm_serve::proto::{encode_request, Op};
use cpm_serve::workload::{sample_rank, zipf_cdf};
use cpm_serve::WireRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Privacy parameter of every non-sweep key.
pub const ALPHA: f64 = 0.9;

/// Zipf exponent of every key-popularity mix.
pub const ZIPF: f64 = 1.1;

fn key(n: usize, alpha: f64, properties: &str, objective: ObjectiveKey) -> SpecKey {
    let properties: PropertySet = properties.parse().expect("property names are valid");
    SpecKey::with_objective(
        n,
        Alpha::new(alpha).expect("alpha in (0, 1]"),
        properties,
        objective,
    )
}

/// The 16-key `serve_probe` mix, hottest first: α = 0.9, n cycling through
/// {32, 16, 24, 8, 12} and properties through {∅, WH, CM, F}.
pub fn probe_keys() -> Vec<SpecKey> {
    let properties = ["", "WH", "CM", "F"];
    (0..16)
        .map(|rank| {
            let n = [32, 16, 24, 8, 12][rank % 5];
            key(n, ALPHA, properties[rank % 4], ObjectiveKey::L0)
        })
        .collect()
}

/// Invertible keys of the collect loop, hottest first: GM n = 32, GM n = 128,
/// WM (WH+CM) n = 32 and WM under the L2 objective at n = 32.  No L1 key
/// fits: the unconstrained L1 and L2 designs leave output columns empty, so
/// they have no inverse, and every constrained L1 design at n = 32 is so
/// ill-conditioned (28x the GM's expected RMSE) that its estimates miss the
/// 2x RMSE gate by chance.
pub fn collect_keys() -> Vec<SpecKey> {
    vec![
        key(32, ALPHA, "", ObjectiveKey::L0),
        key(128, ALPHA, "", ObjectiveKey::L0),
        key(32, ALPHA, "WH+CM", ObjectiveKey::L0),
        key(32, ALPHA, "WH+CM", ObjectiveKey::L2),
    ]
}

/// The design storm, in the order connection A warms it: WM n = 64, a WM
/// α-sweep at n = 48 (0.880 … 0.915, step 0.005, chained by the cache's family
/// seeding), then L1 and L2 at n = 96.
pub fn storm_keys() -> Vec<SpecKey> {
    let mut keys = vec![key(64, ALPHA, "WH+CM", ObjectiveKey::L0)];
    keys.extend((0..8).map(|i| key(48, 0.880 + 0.005 * i as f64, "WH+CM", ObjectiveKey::L0)));
    keys.push(key(96, ALPHA, "", ObjectiveKey::L1));
    keys.push(key(96, ALPHA, "", ObjectiveKey::L2));
    keys
}

/// The GM key connection B reads while the storm runs (warmed at set-up).
pub fn storm_reader_key() -> SpecKey {
    key(32, ALPHA, "", ObjectiveKey::L0)
}

/// A `CPM_SERVE_WARM` list (`n:alpha:properties:objective;…`) for `keys`.
pub fn warm_spec(keys: &[SpecKey]) -> String {
    keys.iter()
        .map(|k| {
            format!(
                "{}:{}:{}:{}",
                k.n,
                k.alpha_value().value(),
                k.properties,
                k.objective
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// The generator seed of the client driving a run's `index`-th server; the
/// first server's is the run's seed itself.
pub fn server_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One client step.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Privatize `inputs` under `key`, as a JSON frame when `json` is set and
    /// as a `CPMF` frame otherwise.
    Privatize {
        key: SpecKey,
        inputs: Vec<usize>,
        json: bool,
    },
    /// Send every output privatized since the previous report back as one
    /// `CPMR` batch.
    Report,
    /// Ask for the frequency estimate of `key`.
    Estimate { key: SpecKey },
}

/// Shape of one closed-loop LDP client.
#[derive(Debug, Clone)]
pub struct LoopShape {
    /// Keys in Zipf popularity order.
    pub keys: Vec<SpecKey>,
    /// The keys estimates may target: designs with an inverse.
    pub estimable: Vec<SpecKey>,
    /// Privatize batch sizes, chosen uniformly per request.
    pub batches: &'static [usize],
    /// Every `json_every`-th privatize goes as JSON (`0` = never).
    pub json_every: u64,
    /// A report batch follows every `report_every` privatize requests.
    pub report_every: u64,
    /// An estimate follows every `estimate_every` privatize requests.
    pub estimate_every: u64,
}

impl LoopShape {
    /// `privatize_small`: batch-1/16 requests over the 16 probe keys, one in
    /// five as JSON; small report batches and rare estimates of the GM keys.
    pub fn privatize_small() -> Self {
        let keys = probe_keys();
        LoopShape {
            // The GM keys; the WH/CM/F designs need not be invertible.
            estimable: keys
                .iter()
                .copied()
                .filter(|k| k.properties.is_empty())
                .collect(),
            keys,
            batches: &[1, 16],
            json_every: 5,
            report_every: 8,
            estimate_every: 64,
        }
    }

    /// `collect_loop`: batches of 256 whose outputs go straight back as one
    /// `CPMR` batch, and an estimate every 8th cycle.
    pub fn collect_loop() -> Self {
        LoopShape {
            keys: collect_keys(),
            estimable: collect_keys(),
            batches: &[256],
            json_every: 0,
            report_every: 1,
            estimate_every: 8,
        }
    }

    /// `design_storm` connection B: batch-1 `CPMF` requests on the GM key, as
    /// an LDP client that reports what it drew.
    pub fn storm_reader() -> Self {
        LoopShape {
            keys: vec![storm_reader_key()],
            estimable: vec![storm_reader_key()],
            batches: &[1],
            json_every: 0,
            report_every: 8,
            estimate_every: 64,
        }
    }
}

/// A seeded, endless stream of [`Step`]s for one [`LoopShape`].
pub struct Generator {
    shape: LoopShape,
    cdf: Vec<f64>,
    rng: StdRng,
    cycle: u64,
    queue: VecDeque<Step>,
    unreported: BTreeSet<SpecKey>,
    reported: BTreeSet<SpecKey>,
}

impl Generator {
    /// A generator for `shape` whose stream is a pure function of `seed`.
    pub fn new(shape: LoopShape, seed: u64) -> Self {
        Generator {
            cdf: zipf_cdf(shape.keys.len(), ZIPF),
            shape,
            rng: StdRng::seed_from_u64(seed),
            cycle: 0,
            queue: VecDeque::new(),
            unreported: BTreeSet::new(),
            reported: BTreeSet::new(),
        }
    }

    fn draw_key(&mut self) -> SpecKey {
        self.shape.keys[sample_rank(&self.cdf, &mut self.rng)]
    }

    fn refill(&mut self) {
        let key = self.draw_key();
        let batch = self.shape.batches[self.rng.gen_range(0..self.shape.batches.len())];
        let inputs: Vec<usize> = (0..batch).map(|_| self.rng.gen_range(0..=key.n)).collect();
        self.cycle += 1;
        let json = self.shape.json_every > 0 && self.cycle.is_multiple_of(self.shape.json_every);
        self.queue.push_back(Step::Privatize { key, inputs, json });
        self.unreported.insert(key);
        if self.cycle.is_multiple_of(self.shape.report_every) {
            self.queue.push_back(Step::Report);
            self.reported.append(&mut self.unreported);
        }
        if self.cycle.is_multiple_of(self.shape.estimate_every) {
            // Redraw until the Zipf mix lands on an estimable key that the
            // server already holds reports for; give up after a bounded number
            // of draws so a cold mix simply skips this estimate.
            for _ in 0..64 {
                let key = self.draw_key();
                if self.shape.estimable.contains(&key) && self.reported.contains(&key) {
                    self.queue.push_back(Step::Estimate { key });
                    break;
                }
            }
        }
    }
}

impl Iterator for Generator {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop_front()
    }
}

/// The JSON form of a privatize request.
pub fn json_privatize(key: &SpecKey, inputs: &[usize]) -> WireRequest {
    WireRequest {
        op: "privatize".to_string(),
        n: key.n,
        alpha: key.alpha_value().value(),
        properties: key.properties.to_string(),
        objective: key.objective.to_string(),
        inputs: inputs.to_vec(),
        ..WireRequest::default()
    }
}

/// The request payload a step sends, except report batches (whose records
/// are the outputs the server returned, so they are not generator-determined).
pub fn request_payload(step: &Step) -> Option<Vec<u8>> {
    match step {
        Step::Privatize { key, inputs, json } => Some(if *json {
            serde_json::to_string(&json_privatize(key, inputs))
                .expect("requests serialize")
                .into_bytes()
        } else {
            encode_request(&Op::Privatize {
                key: *key,
                inputs: inputs.clone(),
            })
            .expect("generated keys fit the CPMF codec")
        }),
        Step::Estimate { key } => {
            Some(encode_request(&Op::Estimate { key: *key }).expect("generated keys fit"))
        }
        Step::Report => None,
    }
}

/// FNV-1a over the length-prefixed frames of the first `steps` steps (a
/// report step hashes as a fixed marker).
pub fn stream_hash(shape: LoopShape, seed: u64, steps: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for step in Generator::new(shape, seed).take(steps) {
        let payload = request_payload(&step).unwrap_or_else(|| b"CPMR".to_vec());
        let len = (payload.len() as u32).to_le_bytes();
        for byte in len.iter().chain(&payload) {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> [LoopShape; 3] {
        [
            LoopShape::privatize_small(),
            LoopShape::collect_loop(),
            LoopShape::storm_reader(),
        ]
    }

    #[test]
    fn same_seed_gives_identical_frames_and_another_seed_differs() {
        for shape in shapes() {
            let a = stream_hash(shape.clone(), 7, 2_000);
            assert_eq!(a, stream_hash(shape.clone(), 7, 2_000));
            assert_ne!(a, stream_hash(shape, 8, 2_000));
        }
    }

    #[test]
    fn steps_follow_the_shape() {
        let steps: Vec<Step> = Generator::new(LoopShape::privatize_small(), 1)
            .take(4_000)
            .collect();
        let privatize = steps
            .iter()
            .filter(|s| matches!(s, Step::Privatize { .. }))
            .count();
        let json = steps
            .iter()
            .filter(|s| matches!(s, Step::Privatize { json: true, .. }))
            .count();
        assert_eq!(json, privatize / 5);
        for step in &steps {
            match step {
                Step::Privatize { key, inputs, .. } => {
                    assert!(inputs.len() == 1 || inputs.len() == 16);
                    assert!(inputs.iter().all(|&x| x <= key.n));
                }
                Step::Estimate { key } => assert!(key.properties.is_empty()),
                Step::Report => {}
            }
        }
        assert!(steps.iter().any(|s| matches!(s, Step::Estimate { .. })));
    }

    #[test]
    fn warm_specs_parse_back_to_the_same_keys() {
        for keys in [probe_keys(), collect_keys(), storm_keys()] {
            let parsed = cpm_serve::boot::parse_warm_keys(&warm_spec(&keys)).unwrap();
            assert_eq!(parsed, keys);
        }
    }
}
