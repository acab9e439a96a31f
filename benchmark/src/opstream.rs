//! The seeded op-stream generator. The seed reaches nothing but this
//! module: the program under test only ever sees the generated ops.
//!
//! FROZEN together with the calibrator (see `calib.rs`): a different
//! stream is a different workload.

/// Ops generated per thread; the load loop cycles through them.
pub const STREAM_LEN: usize = 1 << 16;

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// First slot touched.
    pub slot: u16,
    /// Slots touched (≥ 1).
    pub span: u8,
    /// Which of the workload's paths (files) it addresses.
    pub path: u8,
    /// Write / exclusive when true, read / shared otherwise.
    pub write: bool,
    /// Non-zero payload byte for stamped writes.
    pub tag: u8,
}

/// The shape of a workload's stream.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub slots: u16,
    pub max_span: u8,
    pub paths: u8,
    pub write_pct: u8,
}

/// splitmix64 step: seeds and decorrelates per-thread streams.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stream of `thread` under `seed`.
pub fn generate(seed: u64, thread: usize, mix: Mix) -> Vec<Op> {
    let mut state = seed ^ (thread as u64 + 1).wrapping_mul(0xD605_BBB5_8C8A_BBC9);
    (0..STREAM_LEN)
        .map(|_| {
            let r = splitmix(&mut state);
            let span = 1 + ((r >> 16) % u64::from(mix.max_span)) as u8;
            Op {
                slot: (r % u64::from(mix.slots - u16::from(span) + 1)) as u16,
                span,
                path: ((r >> 24) % u64::from(mix.paths)) as u8,
                write: (r >> 32) % 100 < u64::from(mix.write_pct),
                tag: 1 + ((r >> 40) % 255) as u8,
            }
        })
        .collect()
}

/// FNV-1a over the streams, truncated to 48 bits so it survives a trip
/// through a JSON number. Same seed ⇒ same hash; reported as
/// `harness.opstream_hash`.
pub fn hash(streams: &[Vec<Op>]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for op in streams.iter().flatten() {
        for b in [
            op.slot as u8,
            (op.slot >> 8) as u8,
            op.span,
            op.path,
            u8::from(op.write),
            op.tag,
        ] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h & ((1 << 48) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        slots: 64,
        max_span: 4,
        paths: 8,
        write_pct: 20,
    };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = [generate(1, 0, MIX), generate(1, 1, MIX)];
        let b = [generate(1, 0, MIX), generate(1, 1, MIX)];
        let c = [generate(2, 0, MIX), generate(2, 1, MIX)];
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(hash(&a), hash(&c));
        assert_ne!(a[0], a[1], "threads draw different streams");
    }

    #[test]
    fn ops_respect_the_mix() {
        let ops = generate(3, 0, MIX);
        assert_eq!(ops.len(), STREAM_LEN);
        assert!(ops
            .iter()
            .all(|o| (1..=4).contains(&o.span) && o.slot + u16::from(o.span) <= 64));
        assert!(ops.iter().all(|o| o.path < 8 && o.tag != 0));
        let writes = ops.iter().filter(|o| o.write).count() as f64 / ops.len() as f64;
        assert!((writes - 0.20).abs() < 0.01, "write share {writes}");
    }
}
