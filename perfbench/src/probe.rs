//! Host-speed probe for the sweep's timings.
//!
//! The reference host's vCPUs each switch between a fast and a slow state
//! every few tens of seconds (see `README.md`, Host noise), and a whole
//! run can land in the slow state. Best-of-passes times then still spread
//! by more than the benchmark's bounds between runs of the same code.
//!
//! The slow state costs interpreted code far more than straight-line
//! code, so the probe is a small interpreter: a fixed 97-instruction
//! register-machine program behind a `match` dispatch, the shape of the
//! simulator's own fetch–decode–dispatch loop. It is not part of the
//! program under test. Each sweep worker runs it before every operation.
//! An operation's time is scaled by [`REFERENCE_NS`] / `t`, where `t` is
//! the median of the probe times within [`WINDOW`] operations of it on the
//! same thread. The scaled time is what the operation would take on a
//! host where the probe takes [`REFERENCE_NS`]. A change to the program
//! moves it one for one; the host's speed state mostly does not.

use std::hint::black_box;
use std::time::Instant;

/// Probe time, in ns, that scaled times are expressed at: about the
/// median probe time of the reference host (the 2-vCPU Xeon guest of
/// `README.md`).
pub const REFERENCE_NS: f64 = 200_000.0;
/// Probes on each side of an operation whose median scales it.
pub const WINDOW: usize = 2;
/// Instructions of the probe's program.
const PROGRAM_LEN: u64 = 97;
/// Instructions the probe interprets per sample.
const STEPS: u32 = 60_000;

/// One probe instruction: opcode and two register numbers.
type Op = (u8, u8, u8);

/// One thread's probe: its program and the times it measured, in order.
#[derive(Debug)]
pub struct Probe {
    program: Vec<Op>,
    times: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// A probe with its fixed program.
    #[must_use]
    pub fn new() -> Probe {
        Probe {
            program: (0..PROGRAM_LEN)
                .map(|i| {
                    let h = crate::mix(0, i);
                    (h as u8 % 12, (h >> 8) as u8 % 8, (h >> 16) as u8 % 8)
                })
                .collect(),
            times: Vec::new(),
        }
    }

    /// Runs and times the probe once. Every sample does the same work.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(interpret(black_box(&self.program), black_box(STEPS)));
        self.times.push(t.elapsed().as_nanos() as f64);
    }

    /// The scale for the operation that followed sample `i`: the
    /// reference time over the median of samples `i - WINDOW ..= i +
    /// WINDOW` (1 without samples).
    #[must_use]
    pub fn scale(&self, i: usize) -> f64 {
        let window = &self.times[i.saturating_sub(WINDOW).min(self.times.len())
            ..(i + WINDOW + 1).min(self.times.len())];
        match crate::median(window) {
            t if t > 0.0 => REFERENCE_NS / t,
            _ => 1.0,
        }
    }

    /// Every probe time measured, in ns.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// Interprets `steps` instructions of `program`, looping at its end, on
/// eight registers; returns their XOR.
fn interpret(program: &[Op], steps: u32) -> u32 {
    let mut r = [1u32, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0;
    for _ in 0..steps {
        let (op, a, b) = program[pc];
        let (a, b) = (usize::from(a), usize::from(b));
        pc = if pc + 1 == program.len() { 0 } else { pc + 1 };
        match op {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] = r[a].wrapping_sub(r[b]),
            2 => r[a] ^= r[b].rotate_left(3),
            3 => r[a] = r[a].wrapping_mul(r[b] | 1),
            4 => r[a] = r[b] >> 2,
            5 => r[a] = r[a].wrapping_add(b as u32),
            6 => {
                if r[a] & 1 == 0 {
                    r[b] = r[b].wrapping_add(1);
                }
            }
            7 => r[a] = r[a].min(r[b]),
            8 => r[a] = r[a].max(r[b]),
            9 => r[a] = !r[a],
            10 => {
                if r[a] > r[b] {
                    r.swap(a, b);
                }
            }
            _ => r[a] = r[a].count_ones(),
        }
    }
    r.iter().fold(0, |x, y| x ^ y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_median_of_the_probes_around_an_operation() {
        let p = Probe {
            program: Vec::new(),
            times: vec![1e6, 1e6, 9e9, 1e6, 2e6, 2e6, 2e6],
        };
        // One slow probe does not move its neighbours' scale.
        assert_eq!(p.scale(2), REFERENCE_NS / 1e6);
        assert_eq!(p.scale(0), REFERENCE_NS / 1e6);
        assert_eq!(p.scale(6), REFERENCE_NS / 2e6);
        assert_eq!(Probe::default().scale(0), 1.0);
    }

    #[test]
    fn sample_records_one_time_per_call() {
        let mut p = Probe::new();
        p.sample();
        p.sample();
        assert_eq!(p.times().len(), 2);
        assert!(p.times().iter().all(|&t| t > 0.0));
    }
}
