//! Random-program generation for differential stress testing.
//!
//! [`random_program`] produces arbitrary-but-valid programs: every load and
//! store is naturally aligned inside a small pool (maximizing in-flight
//! address collisions), control flow always terminates, and all semantics
//! are interpreter-clean. The integration suite runs these through the
//! out-of-order pipeline under every backend and checks retirement against
//! the architectural trace — the strongest end-to-end property in the repo.

use aim_isa::{Program, Reg};
use aim_types::{AccessSize, Addr};

use crate::kernel::{KernelBuilder, Xorshift};

const POOL_BASE: i64 = 0x0500_0000;
const POOL_WORDS: i64 = 64; // small: lots of in-flight aliasing

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Generates a terminating random program: `outer_iters` iterations of a
/// `body_ops`-operation random body over a tiny shared memory pool.
///
/// Register conventions: `r1` outer counter, `r2` pool base, `r5..=r17`
/// free-for-all values, `r28`/`r29` scratch for address formation.
///
/// # Examples
///
/// ```
/// use aim_isa::Interpreter;
/// use aim_workloads::stress::random_program;
///
/// let p = random_program(123, 50, 30);
/// let trace = Interpreter::new(&p).run(1_000_000).unwrap();
/// assert!(trace.halted());
/// ```
pub fn random_program(seed: u64, outer_iters: i64, body_ops: usize) -> Program {
    let mut rng = Xorshift::new(seed);
    let mut k = KernelBuilder::new();

    // Pool contents.
    let data: Vec<u64> = (0..POOL_WORDS).map(|_| rng.next_u64()).collect();
    k.asm.data_words(Addr(POOL_BASE as u64), &data);

    k.asm.movi(r(1), outer_iters);
    k.asm.movi(r(2), POOL_BASE);
    for v in 5..=17u8 {
        k.asm.movi(r(v), rng.next_u64() as i64);
    }

    k.asm.label("outer");
    let mut skip_label = 0usize;
    for op in 0..body_ops {
        let val_reg = |rng: &mut Xorshift| r(5 + rng.below(13) as u8);
        match rng.below(10) {
            0..=2 => {
                // ALU register op.
                let (d, a, b) = (val_reg(&mut rng), val_reg(&mut rng), val_reg(&mut rng));
                match rng.below(5) {
                    0 => k.asm.add(d, a, b),
                    1 => k.asm.sub(d, a, b),
                    2 => k.asm.xor(d, a, b),
                    3 => k.asm.mul(d, a, b),
                    _ => k.asm.slt(d, a, b),
                }
            }
            3 | 4 => {
                // ALU immediate op.
                let (d, a) = (val_reg(&mut rng), val_reg(&mut rng));
                let imm = (rng.next_u64() & 0xffff) as i64 - 0x8000;
                match rng.below(4) {
                    0 => k.asm.addi(d, a, imm),
                    1 => k.asm.xori(d, a, imm),
                    2 => k.asm.slli(d, a, (rng.below(63)) as i64),
                    _ => k.asm.srli(d, a, (rng.below(63)) as i64),
                }
            }
            5 | 6 => {
                // Aligned load from the pool.
                let (d, idx) = (val_reg(&mut rng), val_reg(&mut rng));
                let size = AccessSize::ALL[rng.below(4) as usize];
                let sub = (rng.below(8 / size.bytes()) * size.bytes()) as i64;
                k.asm.andi(r(28), idx, POOL_WORDS - 1);
                k.asm.slli(r(28), r(28), 3);
                k.asm.add(r(28), r(28), r(2));
                k.asm.load(d, r(28), sub, size);
            }
            7 | 8 => {
                // Aligned store to the pool.
                let (s, idx) = (val_reg(&mut rng), val_reg(&mut rng));
                let size = AccessSize::ALL[rng.below(4) as usize];
                let sub = (rng.below(8 / size.bytes()) * size.bytes()) as i64;
                k.asm.andi(r(29), idx, POOL_WORDS - 1);
                k.asm.slli(r(29), r(29), 3);
                k.asm.add(r(29), r(29), r(2));
                k.asm.store(s, r(29), sub, size);
            }
            _ => {
                // Forward conditional branch over the next generated ops
                // (emitted as a skippable ALU pair so labels stay simple).
                let (a, b) = (val_reg(&mut rng), val_reg(&mut rng));
                let label = format!("skip_{seed}_{skip_label}_{op}");
                skip_label += 1;
                match rng.below(3) {
                    0 => k.asm.beq(a, b, &label),
                    1 => k.asm.blt(a, b, &label),
                    _ => k.asm.bne(a, b, &label),
                }
                let (d, x) = (val_reg(&mut rng), val_reg(&mut rng));
                k.asm.add(d, d, x);
                k.asm.xori(d, d, 0x55);
                k.asm.label(&label);
            }
        }
    }
    k.asm.subi(r(1), r(1), 1);
    k.asm.bne(r(1), Reg::ZERO, "outer");
    k.asm.halt();
    k.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_isa::Interpreter;

    #[test]
    fn random_programs_terminate_cleanly() {
        for seed in 0..20 {
            let p = random_program(seed, 40, 25);
            let trace = Interpreter::new(&p)
                .run(2_000_000)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(trace.halted(), "seed {seed} did not halt");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = random_program(7, 10, 20);
        let b = random_program(7, 10, 20);
        assert_eq!(a.instrs(), b.instrs());
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_program(1, 10, 20);
        let b = random_program(2, 10, 20);
        assert_ne!(a.instrs(), b.instrs());
    }

    #[test]
    fn memory_traffic_present() {
        let p = random_program(3, 50, 30);
        let trace = Interpreter::new(&p).run(2_000_000).unwrap();
        assert!(trace.records().any(|r| r.mem_load.is_some()));
        assert!(trace.records().any(|r| r.mem_store.is_some()));
    }
}
