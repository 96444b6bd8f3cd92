//! Every outcome is timed: a mapper that gives up before its search —
//! here because the workload cannot be bound to the architecture — still
//! reports how long it took to find that out.

use std::time::Duration;

use sunstone_arch::{
    ArchBuilder, ArchSpec, Binding, BufferPartition, Capacity, Level, MemoryLevel, TensorFilter,
};
use sunstone_baselines::{
    CosaMapper, DMazeConfig, DMazeMapper, GammaConfig, GammaMapper, InterstellarMapper, Mapper,
    SunstoneMapper, TimeloopConfig, TimeloopMapper,
};
use sunstone_workloads::{ConvSpec, Precision};

/// An L1 whose only partition accepts `weight`: every other tensor of a
/// convolution matches no partition there, so binding fails.
fn weight_only_l1() -> ArchSpec {
    let weights = BufferPartition::new(
        "weight_buf",
        TensorFilter::Named(vec!["weight".into()]),
        Capacity::Bytes(512),
        1.0,
        1.0,
    );
    ArchBuilder::new("weight-only-l1")
        .level(Level::Memory(MemoryLevel::partitioned("L1", vec![weights])))
        .spatial("PE", 16)
        .dram(200.0)
        .build()
        .unwrap()
}

#[test]
fn every_mapper_times_a_binding_failure() {
    let w = ConvSpec::new("t", 1, 8, 8, 8, 8, 3, 3, 1).inference(Precision::conventional());
    let arch = weight_only_l1();
    let message = Binding::resolve(&arch, &w).unwrap_err().to_string();
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(SunstoneMapper::default()),
        Box::new(TimeloopMapper::new(
            "TL",
            TimeloopConfig { threads: 1, timeout: 50, ..TimeloopConfig::fast() },
        )),
        Box::new(DMazeMapper::new("dMaze", DMazeConfig::fast())),
        Box::new(InterstellarMapper::new()),
        Box::new(CosaMapper::new()),
        Box::new(GammaMapper::with_config(GammaConfig {
            population: 4,
            generations: 1,
            ..GammaConfig::default()
        })),
    ];
    for mapper in &mappers {
        let out = mapper.map(&w, &arch);
        assert!(!out.is_valid(), "{}", mapper.name());
        let reason = out.invalid_reason.as_deref().unwrap_or_default();
        assert!(reason.contains(&message), "{}: {reason:?} lacks {message:?}", mapper.name());
        assert!(out.stats.elapsed > Duration::ZERO, "{}: elapsed 0", mapper.name());
    }
}
