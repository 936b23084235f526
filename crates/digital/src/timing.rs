//! The bit-pipelining cost model.
//!
//! RACER executes one macro operation (say, a 64-bit ADD) as a wave that
//! flows through the pipeline: array 0 performs the per-bit gate program for
//! bit 0, hands the carry to array 1, and so on. The *stage time* is the
//! cycle count of the per-bit gate program; one operation's latency is
//! `stage_cycles × stages`, but a stream of operations (dependent or not —
//! bit-aligned dependencies also pipeline) achieves a throughput of one
//! operation per `stage_cycles` once the pipeline is warm.
//!
//! Operations that move data *across* bit positions (shifts, pipeline
//! reversal) or through the peripheral I/O (element-wise load/store) break
//! the wave and force a drain; [`PipelineTimer`] accounts for those
//! barriers, which is exactly the serialization the paper's Figure 10a
//! suffers from and its shift units (Figure 10b) avoid.

use darth_reram::Cycles;
use serde::{Deserialize, Serialize};

/// Cost descriptor of one macro operation on a bit pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacroCost {
    /// Cycles of work each array performs (the pipeline stage time).
    pub stage_cycles: u64,
    /// Arrays the operation traverses (usually the pipeline depth).
    pub stages: u64,
    /// Total native primitives executed across all stages (drives energy).
    pub primitives: u64,
    /// Whether the operation breaks bit-pipelining (shift/reversal/IO).
    pub barrier: bool,
}

impl MacroCost {
    /// A zero-cost marker (used for free coordination events).
    pub const FREE: MacroCost = MacroCost {
        stage_cycles: 0,
        stages: 0,
        primitives: 0,
        barrier: false,
    };

    /// Latency of this operation executed alone on an idle pipeline.
    pub fn latency(&self) -> Cycles {
        Cycles::new(self.stage_cycles * self.stages)
    }

    /// Total cycles for `n` back-to-back operations of this kind, using the
    /// classic pipeline formula `stage × (stages + n − 1)`.
    pub fn pipelined_batch(&self, n: u64) -> Cycles {
        if n == 0 || self.stages == 0 {
            return Cycles::ZERO;
        }
        Cycles::new(self.stage_cycles * (self.stages + n - 1))
    }
}

/// Accumulates the execution time of a stream of macro operations on one
/// pipeline, modelling overlap and drain.
///
/// # Example
///
/// ```
/// use darth_digital::timing::{MacroCost, PipelineTimer};
///
/// let add = MacroCost { stage_cycles: 34, stages: 64, primitives: 17 * 64, barrier: false };
/// let mut timer = PipelineTimer::new(64);
/// for _ in 0..10 {
///     timer.issue(add);
/// }
/// // 10 pipelined ADDs: 10 stage-slots plus one drain of the wave.
/// assert_eq!(timer.finish().get(), 34 * 10 + 34 * 63);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineTimer {
    depth: u64,
    issue_cycles: u64,
    last_stage_cycles: u64,
    drained_total: u64,
    ops_issued: u64,
    barriers: u64,
}

impl PipelineTimer {
    /// Creates a timer for a pipeline with `depth` arrays.
    pub fn new(depth: u64) -> Self {
        PipelineTimer {
            depth,
            issue_cycles: 0,
            last_stage_cycles: 0,
            drained_total: 0,
            ops_issued: 0,
            barriers: 0,
        }
    }

    /// Issues one macro operation into the stream.
    ///
    /// Barrier operations drain the in-flight wave before executing and
    /// leave the pipeline empty afterwards.
    pub fn issue(&mut self, cost: MacroCost) {
        if cost.barrier {
            self.drain();
            // Barrier ops execute start-to-finish without overlap.
            self.drained_total += cost.stage_cycles * cost.stages.max(1);
            self.barriers += 1;
            self.ops_issued += 1;
            return;
        }
        self.issue_cycles += cost.stage_cycles;
        self.last_stage_cycles = cost.stage_cycles;
        self.ops_issued += 1;
    }

    /// Issues `n` operations of the same cost: the same timer state as `n`
    /// calls of [`PipelineTimer::issue`], booked in constant time.
    pub fn issue_n(&mut self, cost: MacroCost, n: u64) {
        if n == 0 {
            return;
        }
        if cost.barrier {
            // The first barrier drains the wave; the rest find it empty.
            self.drain();
            self.drained_total += cost.stage_cycles * cost.stages.max(1) * n;
            self.barriers += n;
        } else {
            self.issue_cycles += cost.stage_cycles * n;
            self.last_stage_cycles = cost.stage_cycles;
        }
        self.ops_issued += n;
    }

    /// Forces the in-flight wave to exit the pipeline.
    pub fn drain(&mut self) {
        if self.last_stage_cycles > 0 {
            self.drained_total += self.issue_cycles + self.last_stage_cycles * (self.depth - 1);
            self.issue_cycles = 0;
            self.last_stage_cycles = 0;
        } else {
            self.drained_total += self.issue_cycles;
            self.issue_cycles = 0;
        }
    }

    /// Total operations issued so far.
    pub fn ops_issued(&self) -> u64 {
        self.ops_issued
    }

    /// Barrier operations encountered so far.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Drains the pipeline and returns the total cycle count.
    pub fn finish(mut self) -> Cycles {
        self.drain();
        Cycles::new(self.drained_total)
    }

    /// Total cycles if the stream ended now (non-destructive).
    pub fn elapsed(&self) -> Cycles {
        let mut copy = self.clone();
        copy.drain();
        Cycles::new(copy.drained_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(stage: u64, barrier: bool) -> MacroCost {
        MacroCost {
            stage_cycles: stage,
            stages: 8,
            primitives: stage * 8,
            barrier,
        }
    }

    #[test]
    fn single_op_latency() {
        let c = op(10, false);
        assert_eq!(c.latency().get(), 80);
        assert_eq!(c.pipelined_batch(1).get(), 80);
    }

    #[test]
    fn batch_throughput_beats_serial() {
        let c = op(10, false);
        let serial = c.latency().get() * 100;
        let piped = c.pipelined_batch(100).get();
        assert!(piped < serial / 5, "piped {piped} vs serial {serial}");
        assert_eq!(piped, 10 * (8 + 99));
    }

    #[test]
    fn zero_batch_is_free() {
        assert_eq!(op(10, false).pipelined_batch(0), Cycles::ZERO);
        assert_eq!(MacroCost::FREE.pipelined_batch(5), Cycles::ZERO);
    }

    #[test]
    fn timer_overlaps_nonbarrier_ops() {
        let mut t = PipelineTimer::new(8);
        for _ in 0..100 {
            t.issue(op(10, false));
        }
        // issue slots + drain of last wave
        assert_eq!(t.finish().get(), 10 * 100 + 10 * 7);
    }

    #[test]
    fn timer_matches_pipelined_batch_formula() {
        let c = op(10, false);
        let mut t = PipelineTimer::new(8);
        for _ in 0..42 {
            t.issue(c);
        }
        assert_eq!(t.finish(), c.pipelined_batch(42));
    }

    #[test]
    fn barrier_forces_serialization() {
        let mut t = PipelineTimer::new(8);
        t.issue(op(10, false)); // wave enters
        t.issue(op(4, true)); // barrier: drain (10 + 10*7) then 4*8
        t.issue(op(10, false));
        let total = t.finish().get();
        assert_eq!(total, (10 + 70) + 32 + (10 + 70));
    }

    #[test]
    fn empty_timer_is_zero() {
        assert_eq!(PipelineTimer::new(64).finish(), Cycles::ZERO);
    }

    #[test]
    fn elapsed_is_nondestructive() {
        let mut t = PipelineTimer::new(8);
        t.issue(op(10, false));
        let before = t.elapsed();
        t.issue(op(10, false));
        let after = t.elapsed();
        assert!(after > before);
        assert_eq!(t.ops_issued(), 2);
    }

    #[test]
    fn issue_n_equals_n_single_issues() {
        // From an idle, an in-flight and a drained start, for both kinds.
        let preludes: [&[MacroCost]; 3] = [&[], &[op(7, false)], &[op(7, false), op(3, true)]];
        for prelude in preludes {
            for cost in [op(10, false), op(4, true), op(0, false)] {
                for n in [0u64, 1, 2, 5, 64] {
                    let mut single = PipelineTimer::new(8);
                    let mut batched = PipelineTimer::new(8);
                    for &p in prelude {
                        single.issue(p);
                        batched.issue(p);
                    }
                    for _ in 0..n {
                        single.issue(cost);
                    }
                    batched.issue_n(cost, n);
                    assert_eq!(batched, single, "{cost:?} x{n}");
                    // The states stay equal under later traffic too.
                    single.issue(op(5, false));
                    batched.issue(op(5, false));
                    assert_eq!(batched.finish(), single.finish());
                }
            }
        }
    }

    #[test]
    fn counters_track_barriers() {
        let mut t = PipelineTimer::new(8);
        t.issue(op(1, false));
        t.issue(op(1, true));
        t.issue(op(1, true));
        assert_eq!(t.barriers(), 2);
        assert_eq!(t.ops_issued(), 3);
    }
}
