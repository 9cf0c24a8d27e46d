//! Host-speed calibration: a hand-written kernel of two semi-naive
//! transitive closures that runs on the client thread between the
//! benchmark's operations. One closes integer pairs; the other closes
//! pairs of shared strings held in freshly allocated tuples, as the
//! engine's relations hold `Value::Str`s. Host speed moves the two
//! differently (hashing versus allocation and reference counting), and
//! the engine's workloads sit between them.
//!
//! The kernel uses only `std` and a multiplicative hasher of its own,
//! so no change to the engine can move its time. Each measured engine
//! timing is divided by the kernel time measured around it and
//! multiplied by [`KERNEL_REF_MS`]: the reported value is what the
//! timing would read on a host where the kernel takes exactly the
//! reference time. Host-speed drift (frequency scaling, a busy sibling
//! hyperthread, neighbouring guests) slows the kernel and the engine
//! alike and cancels out of the ratio.
//!
//! This module must import nothing from the engine's `dc-*` crates; the
//! package's tests check that.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Reference kernel time. Calibrated values are expressed at the host
/// speed where one kernel call takes this long; raw values are also
/// reported, so this constant only fixes the scale.
pub const KERNEL_REF_MS: f64 = 1.0;

/// Kernel calls on each side of an operation whose median sets that
/// operation's speed factor.
const WINDOW: usize = 4;

/// Layered random DAG the kernel closes: `LAYERS` layers of `WIDTH`
/// nodes, each node with `FANOUT` edges into the next layer. The string
/// closure covers the first `STRING_LAYERS` layers only.
const LAYERS: u32 = 16;
const WIDTH: u32 = 10;
const FANOUT: u32 = 2;
const STRING_LAYERS: u32 = 6;

/// A word-at-a-time multiplicative hasher, deterministic across runs.
#[derive(Default)]
struct MulHasher(u64);

impl MulHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

type Mul = BuildHasherDefault<MulHasher>;

/// The calibration kernel: a fixed graph whose transitive closures are
/// recomputed from scratch, semi-naively, on every call.
pub struct Kernel {
    edges: Vec<(u32, u32)>,
    /// Node names for the string closure.
    names: Vec<Arc<str>>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Build the kernel's fixed input graph (independent of any seed).
    pub fn new() -> Kernel {
        let mut state: u64 = 0x5EED_CA11_B8A7_E000;
        let mut next = move |n: u32| -> u32 {
            // SplitMix64 step.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % u64::from(n)) as u32
        };
        let mut edges = Vec::new();
        for layer in 0..LAYERS - 1 {
            for i in 0..WIDTH {
                let from = layer * WIDTH + i;
                for _ in 0..FANOUT {
                    edges.push((from, (layer + 1) * WIDTH + next(WIDTH)));
                }
            }
        }
        let names = (0..LAYERS * WIDTH)
            .map(|i| Arc::from(format!("obj_{}_{}", i / WIDTH, i % WIDTH)))
            .collect();
        Kernel { edges, names }
    }

    /// Compute both closures and return the sum of their sizes.
    pub fn run(&self) -> usize {
        self.integer_closure() + self.string_closure()
    }

    fn integer_closure(&self) -> usize {
        let mut succ: HashMap<u32, Vec<u32>, Mul> = HashMap::default();
        for &(a, b) in &self.edges {
            succ.entry(a).or_default().push(b);
        }
        let mut total: HashSet<(u32, u32), Mul> = self.edges.iter().copied().collect();
        let mut delta: Vec<(u32, u32)> = total.iter().copied().collect();
        while !delta.is_empty() {
            let mut next = Vec::new();
            for &(a, b) in &delta {
                for &c in succ.get(&b).into_iter().flatten() {
                    if total.insert((a, c)) {
                        next.push((a, c));
                    }
                }
            }
            delta = next;
        }
        total.len()
    }

    fn string_closure(&self) -> usize {
        let edges = self
            .edges
            .iter()
            .filter(|&&(a, _)| a < (STRING_LAYERS - 1) * WIDTH)
            .map(|&(a, b)| (&self.names[a as usize], &self.names[b as usize]));
        let mut succ: HashMap<Arc<str>, Vec<Arc<str>>, Mul> = HashMap::default();
        let mut total: HashSet<Vec<Arc<str>>, Mul> = HashSet::default();
        let mut delta: Vec<Vec<Arc<str>>> = Vec::new();
        for (a, b) in edges {
            succ.entry(a.clone()).or_default().push(b.clone());
            if total.insert(vec![a.clone(), b.clone()]) {
                delta.push(vec![a.clone(), b.clone()]);
            }
        }
        while !delta.is_empty() {
            let mut next = Vec::new();
            for t in &delta {
                for c in succ.get(&t[1]).into_iter().flatten() {
                    let pair = vec![t[0].clone(), c.clone()];
                    if !total.contains(&pair) {
                        total.insert(pair.clone());
                        next.push(pair);
                    }
                }
            }
            delta = next;
        }
        total.len()
    }

    /// One timed kernel call, in milliseconds.
    pub fn timed_ms(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.run());
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Kernel times recorded one per operation, in operation order.
#[derive(Default)]
pub struct Calibration {
    kernel_ms: Vec<f64>,
}

impl Calibration {
    /// Record the kernel time measured right after operation `i`
    /// (operations must be recorded in order).
    pub fn push(&mut self, kernel_ms: f64) {
        self.kernel_ms.push(kernel_ms);
    }

    /// The factor that scales operation `i`'s raw time to reference
    /// speed: `KERNEL_REF_MS` over the median kernel time of the calls
    /// within `WINDOW` positions of `i`.
    pub fn factor(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + WINDOW + 1).min(self.kernel_ms.len());
        KERNEL_REF_MS / median(&self.kernel_ms[lo..hi])
    }

    /// Median of every recorded kernel time.
    pub fn median_kernel_ms(&self) -> f64 {
        median(&self.kernel_ms)
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Speed factor for a one-off measurement (a set-up): `calls` kernel
/// calls before it and `calls` after it, as the closure's result.
pub fn bracketed<T>(kernel: &Kernel, calls: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let mut ks: Vec<f64> = (0..calls).map(|_| kernel.timed_ms()).collect();
    let out = f();
    ks.extend((0..calls).map(|_| kernel.timed_ms()));
    (out, KERNEL_REF_MS / median(&ks))
}
