//! Table VI of the paper (§V-A) as a study: the two inter-level
//! directions × three intra-level orders, run by one plain level-by-level
//! beam search over materialised [`Mapping`]s.
//!
//! The library schedules one way only — bottom-up, unroll → tile → order.
//! This search is the experiment beside it, built from the library's
//! public enumerators and nothing of its search: no memo, arena, pool or
//! deadline, and every candidate priced whole with
//! [`CostModel::evaluate_unchecked`]. Its caps and floors are the
//! library's defaults; its rules are the plain ones below, so its
//! bottom-up/unroll→tile→order row lands near the library's, not on it.
//!
//! A stage decides an unroll of the fabric directly below a memory, a
//! resident tile, and a loop order:
//!
//! * **bottom-up** stage `s` unrolls the fabric below `mems[s]`, grows the
//!   tile at `mems[s]` and orders `mems[s + 1]`; what is left goes to the
//!   next stage, and the last stage places it at the outermost memory.
//! * **top-down** stage `j` orders `mems[j]`, unrolls the fabric below it
//!   and picks the tile of `mems[j − 1]`; `mems[j]` iterates over what
//!   neither took, and the innermost stage places the last tile there.
//!
//! The intra-level order is the order the three enumerations nest in;
//! each sees what the ones before it decided. A tile chosen before the
//! ordering may grow in every dimension some candidate ordering allows,
//! and an unroll chosen before the ordering it pairs with (top-down) gets
//! no Spatial Unrolling Principle. A tile must leave the fabrics it feeds
//! the library's utilization floor (when the problem allows), and it must
//! fit its memory *and every memory above it*, since the tiles above
//! contain it. Without that last rule tile → unroll → order grows
//! dimensions a memory does not store (simba's weight register) until the
//! memory above can never hold the next stage's base.

use std::cell::Cell;

use sunstone::factors::{divide, multiply};
use sunstone::ordering::{OrderingCandidate, OrderingTrie};
use sunstone::tiling::enumerate_tiles;
use sunstone::unrolling::{enumerate_unrollings, principle_excluded_dims};
use sunstone::SunstoneConfig;
use sunstone_arch::{ArchSpec, Binding, LevelId};
use sunstone_ir::{DimSet, DimVec, Workload};
use sunstone_mapping::{
    Mapping, MappingConstraints, MappingLevel, ResolvedConstraints, ValidationContext,
};
use sunstone_model::{CostModel, CostReport};

/// Which memory the walk decides first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Innermost memory outward — the paper's (and the library's) search.
    BottomUp,
    /// Outermost memory inward.
    TopDown,
}

/// The order in which a stage's three enumerations nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraOrder {
    UnrollTileOrder,
    TileUnrollOrder,
    OrderTileUnroll,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Unroll,
    Tile,
    Order,
}

impl IntraOrder {
    fn steps(self) -> [Step; 3] {
        match self {
            IntraOrder::UnrollTileOrder => [Step::Unroll, Step::Tile, Step::Order],
            IntraOrder::TileUnrollOrder => [Step::Tile, Step::Unroll, Step::Order],
            IntraOrder::OrderTileUnroll => [Step::Order, Step::Tile, Step::Unroll],
        }
    }

    /// The row label of Table VI.
    pub fn label(self) -> &'static str {
        match self {
            IntraOrder::UnrollTileOrder => "unroll→tile→order",
            IntraOrder::TileUnrollOrder => "tile→unroll→order",
            IntraOrder::OrderTileUnroll => "order→tile→unroll",
        }
    }
}

/// Table VI's six rows, the library's order first.
pub const VARIANTS: [(Direction, IntraOrder); 6] = [
    (Direction::BottomUp, IntraOrder::UnrollTileOrder),
    (Direction::BottomUp, IntraOrder::TileUnrollOrder),
    (Direction::BottomUp, IntraOrder::OrderTileUnroll),
    (Direction::TopDown, IntraOrder::UnrollTileOrder),
    (Direction::TopDown, IntraOrder::TileUnrollOrder),
    (Direction::TopDown, IntraOrder::OrderTileUnroll),
];

/// The best mapping one study search found, and what the search did.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyResult {
    pub mapping: Mapping,
    pub report: CostReport,
    /// Candidates priced with the cost model.
    pub priced: u64,
    /// Ordering-trie, tiling-tree and unrolling-lattice nodes explored.
    pub nodes: u64,
    /// Candidates the beam dropped, summed over the stages.
    pub beam_cut: u64,
}

/// Runs one Table VI variant on `workload` × `arch` at `beam_width`.
///
/// # Errors
///
/// A message when the tensors do not bind, a stage admits no candidate,
/// or no completed mapping validates.
pub fn search(
    workload: &Workload,
    arch: &ArchSpec,
    (direction, order): (Direction, IntraOrder),
    beam_width: usize,
) -> Result<StudyResult, String> {
    let binding = Binding::resolve(arch, workload).map_err(|e| e.to_string())?;
    let fabrics = ResolvedConstraints::resolve(&MappingConstraints::new(), workload, arch)
        .map_err(|e| e.to_string())?;
    let mems: Vec<usize> = arch.memory_levels().map(|(id, _)| id.index()).collect();
    let mut gap = 0;
    let fabric_below = mems
        .iter()
        .map(|&m| {
            let fabric = (gap..m).find(|&p| arch.level(LevelId(p)).as_spatial().is_some());
            gap = m + 1;
            fabric
        })
        .collect();
    let study = Study {
        workload,
        arch,
        config: SunstoneConfig::default(),
        validation: ValidationContext::new(workload, arch, &binding),
        model: CostModel::new(workload, arch, &binding),
        trie: OrderingTrie::new(workload),
        mems,
        fabric_below,
        fabrics,
        direction,
        order,
        nodes: Cell::new(0),
    };
    study.run(beam_width.max(1))
}

struct Study<'a> {
    workload: &'a Workload,
    arch: &'a ArchSpec,
    config: SunstoneConfig,
    validation: ValidationContext<'a>,
    model: CostModel<'a>,
    trie: OrderingTrie<'a>,
    /// Memory positions, innermost first.
    mems: Vec<usize>,
    /// Per memory, the fabric in the gap below it.
    fabric_below: Vec<Option<usize>>,
    /// The empty constraint set, resolved: per fabric, the dimensions it
    /// may unroll.
    fabrics: ResolvedConstraints,
    direction: Direction,
    order: IntraOrder,
    /// Nodes the enumerations explored so far.
    nodes: Cell<u64>,
}

/// A partial mapping and what it still has to place: bottom-up the
/// quotient left above the decided memories, top-down the tile left below
/// them.
#[derive(Debug, Clone)]
struct State {
    mapping: Mapping,
    rest: DimVec,
    /// Bottom-up: the ordering chosen for the memory the stage tiles,
    /// which the fabric below it pairs with.
    ordering_here: Option<OrderingCandidate>,
}

/// One stage's decisions about one state: the memory whose factors it
/// sets, the fabric below that memory, the memory it orders, the memory
/// it tiles, and the state's ordering candidates (one `None` when nothing
/// is ordered).
struct Expansion<'s> {
    state: &'s State,
    factors: usize,
    fabric: Option<usize>,
    ordered: Option<usize>,
    tiled: Option<usize>,
    orderings: Vec<Option<OrderingCandidate>>,
}

/// One child, decided step by step: the unroll, the tile's growth (over
/// the bottom-up base), the index of the ordering.
#[derive(Debug, Clone, Default)]
struct Choice {
    unroll: Option<DimVec>,
    growth: Option<DimVec>,
    ordering: Option<usize>,
}

impl Study<'_> {
    fn ones(&self) -> DimVec {
        DimVec::ones(self.workload.num_dims())
    }

    fn run(&self, beam_width: usize) -> Result<StudyResult, String> {
        let mut root = Mapping::streaming(self.workload, self.arch);
        for level in root.levels_mut() {
            level.factors_mut().copy_from_slice(&self.ones());
        }
        let root =
            State { mapping: root, rest: self.workload.dim_sizes().into(), ordering_here: None };
        let (mut beam, mut priced, mut beam_cut) = (vec![root], 0, 0);
        let stages: Vec<usize> = match self.direction {
            Direction::BottomUp => (0..self.mems.len()).collect(),
            Direction::TopDown => (0..self.mems.len()).rev().collect(),
        };
        for j in stages {
            let mut next: Vec<(f64, State)> = Vec::new();
            let before = priced;
            for state in &beam {
                let x = self.expansion(state, j);
                let mut choices = vec![Choice::default()];
                for step in self.order.steps() {
                    choices = choices.into_iter().flat_map(|c| self.options(&x, step, c)).collect();
                }
                for choice in choices {
                    let child = self.child(&x, choice);
                    next.push((self.model.evaluate_unchecked(&self.complete(&child)).edp, child));
                    priced += 1;
                    if next.len() >= 2 * beam_width {
                        keep_best(&mut next, beam_width);
                    }
                }
            }
            if priced == before {
                return Err(format!("the stage of memory {} admits no candidate", self.mems[j]));
            }
            keep_best(&mut next, beam_width);
            beam_cut += priced - before - next.len() as u64;
            beam = next.into_iter().map(|(_, s)| s).collect();
        }
        // The beam is best first, and its estimates are the final prices.
        let mapping = beam
            .iter()
            .map(|s| self.complete(s))
            .find(|m| self.validation.validate(m).is_ok())
            .ok_or("no valid mapping")?;
        let report = self.model.evaluate_unchecked(&mapping);
        Ok(StudyResult { mapping, report, priced, nodes: self.nodes.get(), beam_cut })
    }

    /// What the stage of memory `mems[j]` decides about `state`.
    fn expansion<'s>(&self, state: &'s State, j: usize) -> Expansion<'s> {
        let (factors, fabric) = (self.mems[j], self.fabric_below[j]);
        let (ordered, tiled) = match self.direction {
            Direction::BottomUp => (self.mems.get(j + 1).copied(), Some(factors)),
            Direction::TopDown => {
                ((j > 0).then_some(factors), j.checked_sub(1).map(|i| self.mems[i]))
            }
        };
        let orderings = if ordered.is_some() {
            let in_play = self.workload.dim_ids().filter(|d| state.rest[d.index()] > 1).collect();
            let (candidates, explored) = self.trie.candidates(in_play);
            self.explored(explored);
            candidates.into_iter().map(Some).collect()
        } else {
            vec![None]
        };
        Expansion { state, factors, fabric, ordered, tiled, orderings }
    }

    fn explored(&self, nodes: usize) {
        self.nodes.set(self.nodes.get() + nodes as u64);
    }

    /// `choice` extended by each option of `step`.
    fn options(&self, x: &Expansion<'_>, step: Step, choice: Choice) -> Vec<Choice> {
        match step {
            Step::Order => (0..x.orderings.len())
                .map(|o| Choice { ordering: Some(o), ..choice.clone() })
                .collect(),
            Step::Unroll => self
                .unrolls(x, &choice)
                .into_iter()
                .map(|u| Choice { unroll: Some(u), ..choice.clone() })
                .collect(),
            Step::Tile => self
                .growths(x, &choice)
                .into_iter()
                .map(|g| Choice { growth: Some(g), ..choice.clone() })
                .collect(),
        }
    }

    /// Unrolls of the stage's fabric out of what the tile (if chosen)
    /// leaves, under the Spatial Unrolling Principle of the ordering it
    /// pairs with, if that is chosen; widened to every dimension the
    /// fabric may unroll when the principled ones cannot keep it busy.
    fn unrolls(&self, x: &Expansion<'_>, choice: &Choice) -> Vec<DimVec> {
        let Some(pos) = x.fabric else { return vec![self.ones()] };
        let fabric = self.arch.level(LevelId(pos)).as_spatial().expect("spatial level");
        let growth = choice.growth.clone().unwrap_or_else(|| self.ones());
        let budget = divide(&x.state.rest, &growth);
        let paired = match self.direction {
            Direction::BottomUp => x.state.ordering_here.as_ref(),
            Direction::TopDown => choice.ordering.and_then(|o| x.orderings[o].as_ref()),
        };
        let excluded = paired.map_or(DimSet::EMPTY, |o| {
            principle_excluded_dims(o.fully_reused().map(|t| self.trie.reuse().of(t).full_reuse))
        });
        let relaxed = self.fabrics.at(pos).unroll_dims;
        // Bottom-up, the unroll inflates the tile of the memory above it.
        let inflated =
            (self.direction == Direction::BottomUp).then(|| multiply(&self.base(x), &growth));
        let fits = |u: &[u64]| {
            inflated.as_ref().is_none_or(|t| self.fits_from(x.factors, &multiply(t, u)))
        };
        let floor = self.config.min_spatial_utilization;
        let enumerate = |allowed| {
            let outcome = enumerate_unrollings(&budget, allowed, fabric.units, fits, floor, true);
            self.explored(outcome.explored);
            outcome.unrollings
        };
        let mut unrolls = enumerate(relaxed.difference(excluded));
        if !excluded.is_empty()
            && !unrolls.iter().any(|u| u.volume() as f64 >= floor * fabric.units as f64)
        {
            let wide: Vec<DimVec> =
                enumerate(relaxed).into_iter().filter(|u| !unrolls.contains(u)).collect();
            unrolls.extend(wide);
        }
        unrolls.sort_by_key(|u| std::cmp::Reverse(u.volume()));
        unrolls.truncate(self.config.max_unrolls_per_enum);
        unrolls
    }

    /// Maximal tile growths at the stage's tiled memory out of what the
    /// unroll (if chosen) leaves, in the dimensions the ordering (if
    /// chosen; else any candidate ordering) lets grow.
    fn growths(&self, x: &Expansion<'_>, choice: &Choice) -> Vec<DimVec> {
        let Some(tiled) = x.tiled.filter(|&m| Some(m) != self.mems.last().copied()) else {
            return vec![self.ones()];
        };
        let unroll = choice.unroll.clone().unwrap_or_else(|| self.ones());
        let budget = divide(&x.state.rest, &unroll);
        let base = match self.direction {
            Direction::BottomUp => multiply(&self.base(x), &unroll),
            Direction::TopDown => self.ones(),
        };
        let allowed = match choice.ordering {
            Some(o) => self.tile_allowed(x.orderings[o].as_ref()),
            None => x
                .orderings
                .iter()
                .fold(DimSet::EMPTY, |a, o| a.union(self.tile_allowed(o.as_ref()))),
        };
        // What the tile leaves must keep the fabrics that draw on it at
        // the utilization floor, as far as the problem allows: the ones
        // above the tile bottom-up, and the stage's own if not yet unrolled.
        let drawing = |p: usize| {
            (self.direction == Direction::BottomUp && p > tiled)
                || (choice.unroll.is_none() && Some(p) == x.fabric)
        };
        let units: f64 = self
            .arch
            .spatial_levels()
            .filter(|(p, _)| drawing(p.index()))
            .map(|(_, s)| s.units as f64)
            .product();
        let offer = budget.volume() as f64;
        let want = (units * self.config.min_spatial_utilization).ceil().min(offer);
        let fits = |tile: &[u64]| {
            offer / divide(tile, &base).volume() as f64 >= want && self.fits_from(tiled, tile)
        };
        let outcome = enumerate_tiles(&base, &budget, allowed, fits, true);
        self.explored(outcome.explored);
        let mut growths: Vec<DimVec> = outcome.tiles.iter().map(|t| divide(t, &base)).collect();
        growths.sort_by_key(|g| std::cmp::Reverse(g.volume()));
        growths.truncate(self.config.max_tiles_per_enum);
        growths
    }

    /// The Tiling Principle: the indexing dimensions of every tensor the
    /// ordering fully reuses (every dimension when it reuses none).
    fn tile_allowed(&self, ordering: Option<&OrderingCandidate>) -> DimSet {
        let reused = ordering.into_iter().flat_map(OrderingCandidate::fully_reused);
        let allowed =
            reused.fold(DimSet::EMPTY, |a, t| a.union(self.workload.tensor(t).indexing_dims()));
        if allowed.is_empty() {
            DimSet::first_n(self.workload.num_dims())
        } else {
            allowed
        }
    }

    /// Bottom-up: the resident tile the stage's memory starts from.
    fn base(&self, x: &Expansion<'_>) -> DimVec {
        x.state.mapping.resident_tile(x.factors, self.workload.num_dims())
    }

    /// Whether `tile` fits the memory at `pos` and every memory above it.
    fn fits_from(&self, pos: usize, tile: &[u64]) -> bool {
        let plan = self.validation.capacity();
        self.mems.iter().filter(|&&m| m >= pos).all(|&m| plan.fits(m, tile))
    }

    fn child(&self, x: &Expansion<'_>, choice: Choice) -> State {
        let (unroll, growth) = (choice.unroll.expect("unrolled"), choice.growth.expect("tiled"));
        let ordering = x.orderings[choice.ordering.expect("ordered")].clone();
        let left = divide(&x.state.rest, &multiply(&unroll, &growth));
        let mut mapping = x.state.mapping.clone();
        let levels = mapping.levels_mut();
        if let Some(f) = x.fabric {
            levels[f].factors_mut().copy_from_slice(&unroll);
        }
        if let (Some(pos), Some(o)) = (x.ordered, &ordering) {
            if let MappingLevel::Temporal(t) = &mut levels[pos] {
                t.order.clone_from(&o.order);
            }
        }
        let (factors, rest) = match self.direction {
            Direction::BottomUp if x.ordered.is_none() => (multiply(&growth, &left), self.ones()),
            Direction::BottomUp => (growth, left),
            Direction::TopDown => (left, growth),
        };
        levels[x.factors].factors_mut().copy_from_slice(&factors);
        State { mapping, rest, ordering_here: ordering }
    }

    /// The state with what it still has to place at the outermost memory
    /// (bottom-up) or the innermost (top-down).
    fn complete(&self, state: &State) -> Mapping {
        let pos = match self.direction {
            Direction::BottomUp => *self.mems.last().expect("a memory"),
            Direction::TopDown => self.mems[0],
        };
        let mut m = state.mapping.clone();
        let factors = m.levels_mut()[pos].factors_mut();
        for (f, r) in factors.iter_mut().zip(state.rest.iter()) {
            *f *= r;
        }
        m
    }
}

/// Keeps the `width` lowest-EDP entries, earlier entries first among
/// equals (the sort is stable).
fn keep_best(entries: &mut Vec<(f64, State)>, width: usize) {
    entries.sort_by(|a, b| a.0.total_cmp(&b.0));
    entries.truncate(width);
}
