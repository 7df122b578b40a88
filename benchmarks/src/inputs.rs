//! Seeded input generation. The workload seed drives *which* inputs arrive
//! in *which order*; the size distribution of the work is the same for
//! every seed, because the driver judges run-to-run noise across seeds and
//! would bill a seed-dependent circuit size as noise.

use deepgate::aig::{aiger, Aig};
use deepgate::dataset::{generators, LargeDesign};
use deepgate::netlist::{bench, Netlist};
use deepgate_serve::b64;

/// SplitMix64 — the benchmark's own generator, so request streams do not
/// change when the program's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo ..= hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// One circuit of the `serve_repeat` pool: a name and its BENCH text.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolCircuit {
    /// Design name sent as the request's `name`.
    pub name: String,
    /// BENCH text sent as the request's `bench`.
    pub bench: String,
}

/// The `serve_repeat` pool: twelve structured generator circuits whose
/// graphs have 60–200 nodes. Fixed for every seed (see the module note); the
/// seed picks the order in which they are requested.
pub fn repeat_pool() -> Vec<PoolCircuit> {
    let designs: [Netlist; 12] = [
        generators::ripple_carry_adder(4),
        generators::ripple_carry_adder(6),
        generators::ripple_carry_adder(9),
        generators::comparator(6),
        generators::comparator(10),
        generators::parity_tree(12),
        generators::parity_tree(20),
        generators::decoder(5),
        generators::alu(2),
        generators::counter_next_state(6),
        generators::counter_next_state(9),
        generators::array_multiplier(3),
    ];
    designs
        .iter()
        .enumerate()
        .map(|(i, netlist)| PoolCircuit {
            name: format!("pool{i:02}_{}", netlist.name()),
            bench: bench::write(netlist),
        })
        .collect()
}

/// The pool indices connection `conn` requests, in order: uniform draws
/// from `pool_len`, deterministic in `(seed, conn)`.
pub fn repeat_stream(seed: u64, conn: usize, pool_len: usize) -> impl Iterator<Item = usize> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0001 ^ ((conn as u64 + 1) << 32));
    std::iter::repeat_with(move || rng.range(0, pool_len - 1))
}

/// How a `serve_unique` request carries its circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// `bench`: BENCH text.
    Bench,
    /// `aiger_b64`: base64 of a binary AIGER file.
    AigerB64,
}

impl PayloadKind {
    /// The wire field name.
    pub fn field(self) -> &'static str {
        match self {
            PayloadKind::Bench => "bench",
            PayloadKind::AigerB64 => "aiger_b64",
        }
    }
}

/// One never-seen-before request of `serve_unique`.
#[derive(Debug, Clone, PartialEq)]
pub struct UniqueRequest {
    /// Design name.
    pub name: String,
    /// Wire field the payload travels in.
    pub kind: PayloadKind,
    /// The payload string (BENCH text or base64).
    pub payload: String,
}

/// The `index`-th request of the `serve_unique` stream: a `random_logic`
/// circuit with 8–24 inputs and 50–300 gates, even indices as BENCH text,
/// odd ones as base64 binary AIGER. Every index is a different circuit, so
/// the working set outgrows any cache.
pub fn unique_request(seed: u64, index: u64) -> UniqueRequest {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    let inputs = rng.range(8, 24);
    let gates = rng.range(50, 300);
    let netlist = generators::random_logic(inputs, gates, index ^ seed);
    let name = format!("u{index}");
    if index.is_multiple_of(2) {
        UniqueRequest {
            name,
            kind: PayloadKind::Bench,
            payload: bench::write(&netlist),
        }
    } else {
        let aig = Aig::from_netlist(&netlist).expect("generated netlists map to AIGs");
        let bytes = aiger::write_aig(&aig).expect("combinational AIGs serialise");
        UniqueRequest {
            name,
            kind: PayloadKind::AigerB64,
            payload: b64::encode(&bytes),
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One predict request line (newline-terminated).
pub fn predict_line(id: u64, name: &str, field: &str, payload: &str) -> String {
    format!(
        "{{\"id\":{id},\"name\":\"{}\",\"{field}\":\"{}\"}}\n",
        json_escape(name),
        json_escape(payload)
    )
}

/// A large design at a scale, by the name the reports use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignSpec {
    /// Report name, e.g. `multiplier@0.5`.
    pub name: &'static str,
    /// Which Table III design.
    pub design: LargeDesign,
    /// Generator scale.
    pub scale: f64,
}

/// The `infer_large` pool: all five Table III designs at 10^3–10^4.3 graph
/// nodes. An odd count with distinct sizes, so the median operation falls
/// inside the middle design's cluster instead of between two clusters.
pub const INFER_POOL: [DesignSpec; 5] = [
    DesignSpec {
        name: "arbiter@1.0",
        design: LargeDesign::Arbiter,
        scale: 1.0,
    },
    DesignSpec {
        name: "80386@1.0",
        design: LargeDesign::Processor80386,
        scale: 1.0,
    },
    DesignSpec {
        name: "viper@1.0",
        design: LargeDesign::ViperProcessor,
        scale: 1.0,
    },
    DesignSpec {
        name: "squarer@0.5",
        design: LargeDesign::Squarer,
        scale: 0.5,
    },
    DesignSpec {
        name: "multiplier@0.5",
        design: LargeDesign::Multiplier,
        scale: 0.5,
    },
];

/// The 10^5-node design whose ingest lands in `infer_large`'s set-up.
pub const HUGE_DESIGN: DesignSpec = DesignSpec {
    name: "multiplier@1.0",
    design: LargeDesign::Multiplier,
    scale: 1.0,
};

/// The order in which `infer_large` walks its pool during one cycle: a
/// seeded permutation, re-drawn each cycle.
pub fn infer_order(seed: u64, cycle: u64, pool_len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool_len).collect();
    SplitMix64::new(seed ^ 0x1F0_0D5E ^ cycle.wrapping_mul(0x9E37_79B9)).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let pool = repeat_pool();
        let mut bytes = Vec::new();
        for (id, index) in repeat_stream(seed, 0, pool.len()).take(64).enumerate() {
            let c = &pool[index];
            bytes.extend(predict_line(id as u64, &c.name, "bench", &c.bench).into_bytes());
        }
        for index in 0..8 {
            let r = unique_request(seed, index);
            bytes.extend(predict_line(index, &r.name, r.kind.field(), &r.payload).into_bytes());
        }
        bytes.extend(infer_order(seed, 3, 5).iter().map(|&i| i as u8));
        bytes
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        assert_eq!(stream_bytes(11), stream_bytes(11));
        assert_ne!(stream_bytes(11), stream_bytes(12));
        assert_eq!(repeat_pool(), repeat_pool());
    }

    #[test]
    fn connections_draw_different_streams_over_the_whole_pool() {
        let a: Vec<usize> = repeat_stream(5, 0, 12).take(200).collect();
        let b: Vec<usize> = repeat_stream(5, 1, 12).take(200).collect();
        assert_ne!(a, b);
        for index in 0..12 {
            assert!(a.contains(&index), "pool circuit {index} never requested");
        }
    }

    #[test]
    fn unique_requests_alternate_payload_kinds_and_stay_in_range() {
        for index in 0..6u64 {
            let r = unique_request(9, index);
            let expected = if index % 2 == 0 {
                PayloadKind::Bench
            } else {
                PayloadKind::AigerB64
            };
            assert_eq!(r.kind, expected);
            assert!(!r.payload.is_empty());
        }
        assert_ne!(unique_request(9, 0).payload, unique_request(9, 2).payload);
    }

    #[test]
    fn infer_order_is_a_permutation() {
        let mut order = infer_order(3, 0, 5);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(json_escape("a\"b\n"), "a\\\"b\\n");
    }
}
