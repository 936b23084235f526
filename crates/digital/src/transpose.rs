//! Branch-free bit-matrix transposes between element values and bit planes.
//!
//! A packed register stores each 64-element block as `depth` plane words:
//! bit `e` of plane `i` is bit `i` of element `e`. Converting a block
//! between values and planes is the transpose of a 64 × `depth` bit
//! matrix. The kernel rounds the depth up to a power of two `D`, packs
//! element `e` into lane `e / D` of word `e % D` (so `64 / D` elements
//! share a word), and transposes every `D × D` lane block in place with
//! `log2(D)` masked butterfly stages — 32 word swaps at depth 16. The
//! transpose is its own inverse, so both directions share the butterfly.
//! The work per block is fixed whatever the data: no loop exits on a set
//! bit, so nothing mispredicts.

/// Elements per block: the bits of one plane word.
pub(crate) const BLOCK: usize = 64;

/// `MASKS[k]` selects the low `2^k` bits of every `2^(k+1)`-bit group.
const MASKS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Transposes every `D × D` lane block of `w[..D]` in place, where `D` is
/// a power of two. Row `j` of a block is word `j`; column `c` is bit `c`
/// of the lane. Each stage swaps the off-diagonal `s × s` sub-blocks.
/// `D` is a constant so the stages unroll into straight-line code.
fn butterfly<const D: usize>(w: &mut [u64; BLOCK]) {
    let mut s = D / 2;
    while s > 0 {
        let m = MASKS[s.trailing_zeros() as usize];
        for base in (0..D).step_by(2 * s) {
            for j in base..base + s {
                let t = ((w[j] >> s) ^ w[j + s]) & m;
                w[j + s] ^= t;
                w[j] ^= t << s;
            }
        }
        s /= 2;
    }
}

fn to_planes<const D: usize>(values: &[u64]) -> [u64; BLOCK] {
    let mut w = [0u64; BLOCK];
    for (e, &v) in values.iter().enumerate() {
        w[e % D] |= v << (e / D * D);
    }
    butterfly::<D>(&mut w);
    w
}

fn to_values<const D: usize>(mut planes: [u64; BLOCK], values: &mut [u64]) {
    butterfly::<D>(&mut planes);
    let lane = u64::MAX >> (BLOCK - D);
    for (e, v) in values.iter_mut().enumerate() {
        *v = planes[e % D] >> (e / D * D) & lane;
    }
}

/// The bit planes of one block of up to 64 values: bit `e` of plane `i`
/// is bit `i` of `values[e]`. Every value must fit in `depth` bits.
/// Elements past `values.len()` read as zero, so the planes' tail bits
/// are zero; only `[..depth]` of the result is meaningful and the rest is
/// zero.
pub(crate) fn values_to_planes(values: &[u64], depth: usize) -> [u64; BLOCK] {
    debug_assert!(values.len() <= BLOCK && (1..=64).contains(&depth));
    match depth.next_power_of_two() {
        1 => to_planes::<1>(values),
        2 => to_planes::<2>(values),
        4 => to_planes::<4>(values),
        8 => to_planes::<8>(values),
        16 => to_planes::<16>(values),
        32 => to_planes::<32>(values),
        _ => to_planes::<64>(values),
    }
}

/// The inverse of [`values_to_planes`]: fills `values` (at most 64) from
/// the block's planes `planes[..depth]`. Planes from `depth` on must be
/// zero.
pub(crate) fn planes_to_values(planes: [u64; BLOCK], depth: usize, values: &mut [u64]) {
    debug_assert!(values.len() <= BLOCK && (1..=64).contains(&depth));
    match depth.next_power_of_two() {
        1 => to_values::<1>(planes, values),
        2 => to_values::<2>(planes, values),
        4 => to_values::<4>(planes, values),
        8 => to_values::<8>(planes, values),
        16 => to_values::<16>(planes, values),
        32 => to_values::<32>(planes, values),
        _ => to_values::<64>(planes, values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic xorshift stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Per-bit definition of values → planes over a multi-block register
    /// laid out plane-major (`planes[i * nw + wi]`).
    fn planes_by_definition(values: &[u64], depth: usize) -> Vec<u64> {
        let nw = values.len().div_ceil(BLOCK);
        let mut planes = vec![0u64; depth * nw];
        for (e, &v) in values.iter().enumerate() {
            for i in 0..depth {
                planes[i * nw + e / BLOCK] |= (v >> i & 1) << (e % BLOCK);
            }
        }
        planes
    }

    #[test]
    fn kernel_matches_the_per_bit_definition_at_every_depth_and_length() {
        let mut next = stream(0x9E37_79B9_7F4A_7C15);
        for depth in 1..=64usize {
            let mask = u64::MAX >> (64 - depth);
            for elements in 1..=200usize {
                let nw = elements.div_ceil(BLOCK);
                let values: Vec<u64> = (0..elements).map(|_| next() & mask).collect();
                let want = planes_by_definition(&values, depth);

                // Values → planes, block by block; tail bits stay zero.
                let mut got = vec![0u64; depth * nw];
                for (wi, chunk) in values.chunks(BLOCK).enumerate() {
                    let block = values_to_planes(chunk, depth);
                    assert!(block[depth..].iter().all(|&p| p == 0), "depth {depth}");
                    for i in 0..depth {
                        got[i * nw + wi] = block[i];
                    }
                }
                assert_eq!(got, want, "values to planes, depth {depth} n {elements}");

                // Planes → values from the definition's planes gives the
                // values back, so each direction inverts the other.
                let mut back = vec![0u64; elements];
                for (wi, chunk) in back.chunks_mut(BLOCK).enumerate() {
                    let mut block = [0u64; BLOCK];
                    for i in 0..depth {
                        block[i] = want[i * nw + wi];
                    }
                    planes_to_values(block, depth, chunk);
                }
                assert_eq!(back, values, "planes to values, depth {depth} n {elements}");
            }
        }
    }
}
