//! Arc-matrix allocation pool for batched parsing.
//!
//! The O(n⁴) arc matrices dominate the parser's allocation traffic: every
//! sentence allocates C(nq, 2) bit matrices and drops them when its
//! [`crate::Network`] is discarded. When parsing a batch, the pool keeps the
//! backing `Vec<u64>` buffers of a finished sentence and hands them to the
//! next one (see [`bitmat::BitMatrix::zeros_from`]), so steady-state batch
//! parsing allocates arc storage only when a sentence needs more or larger
//! matrices than any before it.
//!
//! Pooling is invisible to results: a pooled matrix starts all-zero exactly
//! like a fresh one, so parses are byte-identical with and without a pool
//! (asserted by the determinism suite).

use bitmat::BitMatrix;

/// Allocation counters, for tests and the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Matrices handed out.
    pub acquires: usize,
    /// Acquires served from a recycled buffer (no fresh allocation).
    pub reuses: usize,
    /// Matrices returned to the pool.
    pub releases: usize,
}

impl PoolStats {
    /// The traffic since `earlier`, a snapshot of the same pool.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            acquires: self.acquires - earlier.acquires,
            reuses: self.reuses - earlier.reuses,
            releases: self.releases - earlier.releases,
        }
    }
}

/// A free-list of `u64` word buffers recycled between arc matrices.
#[derive(Debug, Default)]
pub struct ArcPool {
    bufs: Vec<Vec<u64>>,
    /// Matrices acquired here and not yet released: the most buffers the
    /// free-list takes back, so matrices built elsewhere (the P-RAM and
    /// MasPar networks a warm state recycles) cannot grow it without bound.
    lent: usize,
    pub stats: PoolStats,
}

impl ArcPool {
    pub fn new() -> Self {
        ArcPool::default()
    }

    /// An all-zero `rows × cols` matrix, backed by a recycled buffer when
    /// one is available.
    pub fn acquire(&mut self, rows: usize, cols: usize) -> BitMatrix {
        self.stats.acquires += 1;
        self.lent += 1;
        match self.bufs.pop() {
            Some(buf) => {
                self.stats.reuses += 1;
                BitMatrix::zeros_from(rows, cols, buf)
            }
            None => BitMatrix::zeros(rows, cols),
        }
    }

    /// Return a matrix's backing buffer to the free-list, or drop it when
    /// every matrix this pool lent out is already back.
    pub fn release(&mut self, m: BitMatrix) {
        self.stats.releases += 1;
        if self.lent == 0 {
            return;
        }
        self.lent -= 1;
        let words = m.into_words();
        if words.capacity() > 0 {
            self.bufs.push(words);
        }
    }

    /// Buffers currently idle in the free-list.
    pub fn idle_buffers(&self) -> usize {
        self.bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_reuses_released_buffers() {
        let mut pool = ArcPool::new();
        let mut m = pool.acquire(9, 9);
        m.set(3, 4, true);
        pool.release(m);
        assert_eq!(pool.idle_buffers(), 1);

        // A recycled matrix must be indistinguishable from a fresh one.
        let m2 = pool.acquire(9, 9);
        assert_eq!(m2, BitMatrix::zeros(9, 9));
        assert_eq!(pool.stats.reuses, 1);
        assert_eq!(pool.idle_buffers(), 0);

        // Shape changes are fine: the buffer adapts.
        pool.release(m2);
        let m3 = pool.acquire(4, 200);
        assert_eq!(m3, BitMatrix::zeros(4, 200));
        assert_eq!(pool.stats.reuses, 2);
    }

    #[test]
    fn matrices_not_lent_here_are_dropped() {
        let mut pool = ArcPool::new();
        pool.release(BitMatrix::zeros(9, 9));
        assert_eq!(pool.idle_buffers(), 0);
        let m = pool.acquire(9, 9);
        pool.release(m);
        pool.release(BitMatrix::zeros(9, 9));
        assert_eq!(pool.idle_buffers(), 1, "the free-list outgrew what it lent");
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut pool = ArcPool::new();
        let m = pool.acquire(0, 0);
        pool.release(m);
        assert_eq!(pool.idle_buffers(), 0);
    }
}
