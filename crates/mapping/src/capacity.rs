//! The capacity rule: does a resident tile fit its memory?
//!
//! A mapping is valid only if, at every bounded memory level, the resident
//! tiles of the tensors bound to each buffer partition fit that partition
//! (the paper's tiling principle keeps only the maximal *fitting* tiles,
//! §IV-B). The validator, the search's tile and unroll enumerators, the
//! canonical dataflows and every baseline ask that one question, so it is
//! answered in one place: a [`CapacityPlan`], built once per (workload,
//! architecture, binding).

use sunstone_arch::{ArchSpec, Binding, Capacity, LevelId, PartitionId};
use sunstone_ir::{DimVec, TensorDesc, Workload};

/// One buffer partition of a memory level and the tensors bound to it.
#[derive(Debug, Clone)]
struct Partition {
    id: PartitionId,
    capacity: Capacity,
    /// The partition's run of [`CapacityPlan::tensors`].
    tensors: std::ops::Range<usize>,
}

/// Every memory partition's capacity and bound tensors, flat in two
/// vectors: what a capacity probe needs is arithmetic over them — no
/// binding lookups, no allocation.
///
/// The arithmetic saturates instead of wrapping. Degenerate inputs (2⁴⁰
/// dimension extents) overflow `u64`, and saturation only ever
/// *over*-reports a requirement, so an oversized tile is rejected, never
/// falsely admitted.
#[derive(Debug, Clone)]
pub struct CapacityPlan<'a> {
    /// `parts[starts[pos]..starts[pos + 1]]` are the partitions of the
    /// memory at architecture position `pos` (none for a fabric); inline,
    /// not allocated, up to seven levels.
    starts: DimVec,
    /// Every partition of every memory level, in architecture position
    /// order, each level's in declaration order.
    parts: Vec<Partition>,
    /// The tensors bound to each partition with their bytes per word,
    /// partition after partition, each partition's in tensor order.
    tensors: Vec<(&'a TensorDesc, u64)>,
}

impl<'a> CapacityPlan<'a> {
    /// The plan of `workload` bound to `arch`'s memories by `binding`.
    pub fn new(workload: &'a Workload, arch: &ArchSpec, binding: &Binding) -> Self {
        let levels = arch.levels();
        let mut starts = DimVec::from_slice(&[0]);
        let mut parts = Vec::with_capacity(levels.len() * 2);
        let mut tensors = Vec::with_capacity(levels.len() * workload.num_tensors());
        for (pos, level) in levels.iter().enumerate() {
            let partitions = level.as_memory().map_or(&[][..], |m| &m.partitions);
            for (p, partition) in partitions.iter().enumerate() {
                let start = tensors.len();
                for t in workload.tensor_ids() {
                    if binding.partition_of(LevelId(pos), t) == Some(PartitionId(p)) {
                        let tensor = workload.tensor(t);
                        tensors.push((tensor, u64::from(tensor.bits()).div_ceil(8)));
                    }
                }
                parts.push(Partition {
                    id: PartitionId(p),
                    capacity: partition.capacity,
                    tensors: start..tensors.len(),
                });
            }
            starts.push(parts.len() as u64);
        }
        CapacityPlan { starts, parts, tensors }
    }

    /// Does `tile`, resident in the memory at architecture position `pos`,
    /// fit every partition there? True for spatial positions and unbounded
    /// memories. Monotone: if a tile fits, every tile inside it fits.
    #[inline]
    pub fn fits(&self, pos: usize, tile: &[u64]) -> bool {
        self.overflow(pos, tile).is_none()
    }

    /// The first partition of the memory at `pos` that `tile` overflows,
    /// with the bytes it would need there.
    #[inline]
    pub fn overflow(&self, pos: usize, tile: &[u64]) -> Option<(PartitionId, u64)> {
        self.overflow_by(pos, |t| t.footprint(tile))
    }

    /// As [`overflow`](Self::overflow), for a footprint of the caller's:
    /// `words(t)` is how many words of tensor `t` must be resident. The
    /// rule — per partition, the saturating sum of words × bytes per word
    /// against the partition's capacity — is the same.
    pub fn overflow_by(
        &self,
        pos: usize,
        mut words: impl FnMut(&TensorDesc) -> u64,
    ) -> Option<(PartitionId, u64)> {
        for p in self.partitions(pos) {
            // An unbounded partition holds anything: skip its sum.
            let Capacity::Bytes(limit) = p.capacity else { continue };
            let needed = self.needed(p, &mut words);
            if needed > limit {
                return Some((p.id, needed));
            }
        }
        None
    }

    /// What `tile` needs in the memory at `pos` and what that memory
    /// holds, each summed over all of its partitions (an unbounded one
    /// counting `u64::MAX`), saturating. A measurement for utilisation
    /// thresholds that are defined over a whole level; whether the tile
    /// fits is [`fits`](Self::fits)'s, per partition.
    pub fn load(&self, pos: usize, tile: &[u64]) -> (u64, u64) {
        self.partitions(pos).iter().fold((0u64, 0u64), |(needed, capacity), p| {
            (
                needed.saturating_add(self.needed(p, |t| t.footprint(tile))),
                capacity.saturating_add(p.capacity.bytes().unwrap_or(u64::MAX)),
            )
        })
    }

    /// The partitions of the memory at `pos` (none for a spatial level).
    #[inline]
    fn partitions(&self, pos: usize) -> &[Partition] {
        match self.starts.get(pos..pos + 2) {
            Some(&[start, end]) => &self.parts[start as usize..end as usize],
            _ => &[],
        }
    }

    /// The bytes partition `p` needs for `words` of each bound tensor.
    fn needed(&self, p: &Partition, mut words: impl FnMut(&TensorDesc) -> u64) -> u64 {
        self.tensors[p.tensors.clone()]
            .iter()
            .fold(0u64, |acc, &(t, bytes)| acc.saturating_add(words(t).saturating_mul(bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::{presets, Level, MemoryLevel, TensorFilter};

    /// The per-partition fold the validator ran before the plan existed:
    /// every stored tensor's saturating footprint in bytes, summed per
    /// partition, each partition checked in declaration order. Returns
    /// the first violation and every partition's need.
    fn reference(
        workload: &Workload,
        binding: &Binding,
        level: LevelId,
        mem: &MemoryLevel,
        tile: &[u64],
    ) -> (Option<(PartitionId, u64)>, Vec<u64>) {
        let mut needed = vec![0u64; mem.partitions.len()];
        for t in workload.tensor_ids() {
            if let Some(pid) = binding.partition_of(level, t) {
                let tensor = workload.tensor(t);
                let bytes =
                    tensor.footprint(tile).saturating_mul(u64::from(tensor.bits()).div_ceil(8));
                needed[pid.0] = needed[pid.0].saturating_add(bytes);
            }
        }
        let first = mem
            .partitions
            .iter()
            .zip(&needed)
            .enumerate()
            .find(|(_, (p, &bytes))| !p.capacity.fits(bytes))
            .map(|(i, (_, &bytes))| (PartitionId(i), bytes));
        (first, needed)
    }

    /// A 7-dimensional convolution whose tensor names every preset's
    /// partition filters bind.
    fn conv2d() -> Workload {
        let mut b = Workload::builder("conv2d");
        let n = b.dim("N", 2);
        let k = b.dim("K", 64);
        let c = b.dim("C", 32);
        let p = b.dim("P", 28);
        let q = b.dim("Q", 28);
        let r = b.dim("R", 3);
        let s = b.dim("S", 3);
        b.input_bits("ifmap", [n.expr(), c.expr(), p + r, q + s], 8);
        b.input_bits("weight", [k.expr(), c.expr(), r.expr(), s.expr()], 8);
        b.output_bits("ofmap", [n.expr(), k.expr(), p.expr(), q.expr()], 24);
        b.build().expect("valid workload")
    }

    /// The conventional preset with its L2 bypassing weights.
    fn bypassing() -> ArchSpec {
        let arch = presets::conventional();
        let levels = arch
            .levels()
            .iter()
            .cloned()
            .enumerate()
            .map(|(pos, level)| match level {
                Level::Memory(m) if pos == 2 => {
                    Level::Memory(m.with_bypass(TensorFilter::Named(vec!["weight".into()])))
                }
                other => other,
            })
            .collect();
        ArchSpec::new("bypassing", levels, arch.mac_energy_pj(), arch.ref_bits())
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A random extent: mostly small, sometimes zero or 2⁴⁰.
    fn extent(next: &mut impl FnMut() -> u64) -> u64 {
        match next() % 16 {
            0 => 0,
            1 => 1 << 40,
            2 => next() % (1 << 20),
            _ => 1 + next() % 64,
        }
    }

    #[test]
    fn plan_matches_the_per_partition_fold() {
        let w = conv2d();
        let archs = [
            presets::conventional(),
            presets::eyeriss_like(),
            presets::simba_like(),
            presets::diannao_like(),
            bypassing(),
        ];
        let mut next = xorshift(7);
        for arch in &archs {
            let binding = Binding::resolve(arch, &w).expect("binds");
            let plan = CapacityPlan::new(&w, arch, &binding);
            for _ in 0..2_000 {
                let tile: Vec<u64> = (0..w.num_dims()).map(|_| extent(&mut next)).collect();
                // Every tile inside `tile`: each extent shrunk at random.
                let inner: Vec<u64> =
                    tile.iter().map(|&e| if e == 0 { 0 } else { e - next() % e }).collect();
                for (pos, level) in arch.levels().iter().enumerate() {
                    let Level::Memory(mem) = level else {
                        assert!(plan.fits(pos, &tile), "a fabric holds anything");
                        continue;
                    };
                    let (first, needs) = reference(&w, &binding, LevelId(pos), mem, &tile);
                    let at = format!("{} pos {pos} tile {tile:?}", arch.name());
                    assert_eq!(plan.overflow(pos, &tile), first, "{at}");
                    assert_eq!(plan.fits(pos, &tile), first.is_none(), "{at}");
                    if mem.is_unbounded() {
                        assert!(plan.fits(pos, &tile), "{at}");
                    }
                    if plan.fits(pos, &tile) {
                        assert!(plan.fits(pos, &inner), "{at}: {inner:?} inside it overflows");
                    }
                    let (load, _) = plan.load(pos, &tile);
                    assert!(needs.iter().all(|&n| load >= n), "{at}: load {load} < {needs:?}");
                }
            }
        }
    }

    #[test]
    fn load_pools_the_level() {
        let w = conv2d();
        let arch = presets::simba_like();
        let binding = Binding::resolve(&arch, &w).expect("binds");
        let plan = CapacityPlan::new(&w, &arch, &binding);
        // Simba's PE buffer level: three bounded partitions.
        let (pos, mem) = arch.memory_levels().nth(1).expect("PE buffers");
        let bounded: u64 = mem.partitions.iter().filter_map(|p| p.capacity.bytes()).sum();
        let ones = vec![1u64; w.num_dims()];
        assert_eq!(plan.load(pos.index(), &ones), (1 + 1 + 3, bounded));
        // DRAM pools to the saturated limit.
        let dram = arch.num_levels() - 1;
        assert_eq!(plan.load(dram, &ones).1, u64::MAX);
        assert!(plan.fits(dram, &[1 << 40; 7]));
    }
}
