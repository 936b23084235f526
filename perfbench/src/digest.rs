//! Recomputes `ServeReport::output_digest` from the software goldens.
//!
//! The serving engine hashes each served request's outputs with FNV-1a
//! (labels and cells, in order) and folds `(id, hash)` pairs in id order
//! into one digest. The same fold over the goldens gives the digest a
//! correct run must report when no request was rejected. The constants
//! and byte order must stay those of `darth_serve`'s engine.

use darth_pum::eval::ExecOutput;
use darth_serve::{Request, ServeClass};

/// FNV-1a 64-bit over a byte stream.
pub struct Fnv1a(pub u64);

impl Fnv1a {
    /// The FNV-1a 64-bit offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a little-endian `u64`.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }
}

/// Hash of one request's outputs, as the engine computes it.
pub fn hash_outputs(outputs: &[ExecOutput]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(outputs.len() as u64);
    for out in outputs {
        h.write(out.label.as_bytes());
        h.write_u64(out.cells.len() as u64);
        for &cell in &out.cells {
            h.write(&cell.to_le_bytes());
        }
    }
    h.0
}

/// The digest a correct serve of `trace` reports when nothing is
/// rejected: every request's golden outputs, hashed and folded in id
/// order (trace ids are dense and ascending).
///
/// # Errors
///
/// Propagates golden computation errors.
pub fn expected_digest(classes: &[ServeClass], trace: &[Request]) -> darth_pum::Result<u64> {
    let mut digest = Fnv1a::new();
    for r in trace {
        digest.write_u64(r.id);
        digest.write_u64(hash_outputs(&classes[r.class].golden(r.input_seed)?));
    }
    Ok(digest.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_serve::{fleet::FleetChip, standard_classes, trace, ServeEngine, TraceSpec};

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        let mut empty = Fnv1a::new();
        empty.write(b"");
        assert_eq!(empty.0, 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv1a::new();
        a.write(b"a");
        assert_eq!(a.0, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn recomputed_digest_equals_the_served_digest_on_a_small_trace() {
        let classes = standard_classes().expect("classes compile");
        let requests = trace::generate(&TraceSpec::bursty(5, 120, 50_000.0), classes.len());
        let fleet = vec![FleetChip::new("a/0", 1.5e9), FleetChip::new("b/0", 1.0e9)];
        let report = ServeEngine::new(classes.clone(), fleet)
            .expect("engine builds")
            .with_workers(2)
            .serve(&requests)
            .expect("trace serves");
        assert_eq!(report.rejected, 0);
        let expected = expected_digest(&classes, &requests).expect("goldens compute");
        assert_eq!(expected, report.output_digest);

        // A one-request change in the trace changes the digest.
        let mut shifted = requests.clone();
        shifted[7].input_seed ^= 1;
        assert_ne!(expected_digest(&classes, &shifted).unwrap(), expected);
    }
}
