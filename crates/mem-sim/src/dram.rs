//! DRAM channel model: banks, row buffers and MSHRs.
//!
//! Within a VRAM channel, "a DRAM bank can only serve one request in a
//! clock cycle, [so] memory requests from multiple threads to the same
//! DRAM bank must be processed sequentially" (paper §2.2, citing FGPU).
//! Two addresses in the same bank but different rows additionally pay a
//! row-activation penalty — the signal Algo 1 uses to find bank-conflicting
//! address pairs.

use gpu_spec::PhysAddr;

/// Where a DRAM access landed relative to the bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The bank's row buffer already held the row.
    RowHit,
    /// A different row was open; precharge + activate required.
    RowConflict,
    /// The bank was idle (first access).
    RowEmpty,
}

/// One DRAM bank with a single open-row buffer.
#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u64>,
}

/// The DRAM side of one VRAM channel.
#[derive(Debug, Clone)]
pub struct DramChannel {
    banks: Vec<Bank>,
    /// Indices of the banks with an open row, each listed once. A row
    /// buffer only closes at `precharge_all`, which closes exactly these
    /// and costs O(opened banks) instead of O(all banks).
    opened: Vec<usize>,
    /// log2 of the row size in bytes. Addresses in the same bank whose
    /// upper bits differ map to different rows.
    row_shift: u32,
}

impl DramChannel {
    pub fn new(num_banks: u32, row_shift: u32) -> Self {
        assert!(num_banks.is_power_of_two());
        Self {
            banks: vec![Bank::default(); num_banks as usize],
            opened: Vec::new(),
            row_shift,
        }
    }

    /// Bank index of a physical address. Folds partition bits, row bits and
    /// higher bits (as real DRAM bank hashes do) so that bank selection is
    /// decorrelated from both channel interleaving and L2 set placement —
    /// sequential partitions of one channel spread over all banks.
    #[inline]
    pub fn bank_of(&self, addr: PhysAddr) -> usize {
        let mask = (self.banks.len() - 1) as u64;
        (((addr.0 >> 10) ^ (addr.0 >> self.row_shift) ^ (addr.0 >> 23)) & mask) as usize
    }

    /// Row index of a physical address.
    #[inline]
    pub fn row_of(&self, addr: PhysAddr) -> u64 {
        addr.0 >> self.row_shift
    }

    /// Performs an access, updating the bank's open row.
    pub fn access(&mut self, addr: PhysAddr) -> RowOutcome {
        let bank = self.bank_of(addr);
        let row = self.row_of(addr);
        let b = &mut self.banks[bank];
        let outcome = match b.open_row {
            Some(open) if open == row => RowOutcome::RowHit,
            Some(_) => RowOutcome::RowConflict,
            None => {
                self.opened.push(bank);
                RowOutcome::RowEmpty
            }
        };
        b.open_row = Some(row);
        outcome
    }

    /// True when two addresses hit the same bank but different rows — the
    /// condition Algo 1 detects through latency.
    pub fn conflicts(&self, a: PhysAddr, b: PhysAddr) -> bool {
        self.bank_of(a) == self.bank_of(b) && self.row_of(a) != self.row_of(b)
    }

    /// Closes all row buffers (e.g. after refresh) by closing the banks
    /// opened since the last precharge.
    pub fn precharge_all(&mut self) {
        for b in self.opened.drain(..) {
            self.banks[b].open_row = None;
        }
    }

    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ch() -> DramChannel {
        DramChannel::new(16, 17)
    }

    #[test]
    fn first_access_is_empty_then_hit() {
        let mut c = ch();
        let a = PhysAddr(0x1_0000);
        assert_eq!(c.access(a), RowOutcome::RowEmpty);
        assert_eq!(c.access(a), RowOutcome::RowHit);
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut c = ch();
        let a = PhysAddr(0);
        // Same bank: bank = (p>>10 ^ p>>17) & 15. Construct b with a row
        // delta whose bank contribution is cancelled by a partition delta.
        let mut b = None;
        for candidate in 1..1u64 << 22 {
            let pb = PhysAddr(candidate << 10);
            if c.bank_of(pb) == c.bank_of(a) && c.row_of(pb) != c.row_of(a) {
                b = Some(pb);
                break;
            }
        }
        let b = b.expect("a conflicting address exists");
        assert!(c.conflicts(a, b));
        c.access(a);
        assert_eq!(c.access(b), RowOutcome::RowConflict);
    }

    #[test]
    fn same_row_never_conflicts() {
        let c = ch();
        let a = PhysAddr(0x2_0000);
        let b = PhysAddr(0x2_0000 + 128);
        assert!(!c.conflicts(a, b));
    }

    #[test]
    fn conflict_density_is_roughly_one_in_banks() {
        // Scanning forward from an address should find a bank conflict
        // within a few times `num_banks` partitions — this is what makes
        // Algo 1's linear scan cheap.
        let c = ch();
        let a = PhysAddr(0x40_0000);
        let mut hits = 0;
        let trials = 4096;
        for i in 1..=trials {
            if c.conflicts(a, PhysAddr(0x40_0000 + (i << 10))) {
                hits += 1;
            }
        }
        let expected = trials / c.num_banks() as u64;
        assert!(
            hits > expected / 4 && hits < expected * 4,
            "conflict density off: {hits} vs ~{expected}"
        );
    }

    #[test]
    fn precharge_clears_rows() {
        let mut c = ch();
        let a = PhysAddr(0x8000);
        c.access(a);
        c.precharge_all();
        assert_eq!(c.access(a), RowOutcome::RowEmpty);
    }

    /// `precharge_all` closes only the banks opened since the previous
    /// one, so a precharged channel must behave exactly like a freshly
    /// built one.
    #[test]
    fn precharged_channel_behaves_like_fresh() {
        for seed in 0..64u64 {
            let mut inputs = StdRng::seed_from_u64(seed);
            let mut used = ch();
            for round in 0..4 {
                let mut fresh = ch();
                // Short rounds leave most banks idle; long ones revisit
                // banks in several rows (8 MiB spans 64 rows).
                let len = inputs.gen_range(0..64);
                let span = inputs.gen_range(1..8u64 << 20);
                for _ in 0..len {
                    let a = PhysAddr(inputs.gen_range(0..span) & !127);
                    assert_eq!(
                        used.access(a),
                        fresh.access(a),
                        "seed {seed} round {round}: access {a:?}"
                    );
                }
                // Each open bank is listed exactly once.
                let mut listed = used.opened.clone();
                listed.sort_unstable();
                let open: Vec<usize> = (0..used.num_banks())
                    .filter(|&b| used.banks[b].open_row.is_some())
                    .collect();
                assert_eq!(listed, open);
                used.precharge_all();
                assert!(used.banks.iter().all(|b| b.open_row.is_none()));
                assert!(used.opened.is_empty());
            }
        }
    }
}
