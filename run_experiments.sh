#!/bin/sh
# Regenerates every table and figure; outputs under results/.
set -x
cargo run --release -q -p sunstone-bench --bin table1_space  > results/table1_space.txt 2>&1
cargo run --release -q -p sunstone-bench --bin table3_reuse  > results/table3_reuse.txt 2>&1
cargo run --release -q -p sunstone-bench --bin prune_stats   > results/prune_stats.txt 2>&1
cargo run --release -q -p sunstone-bench --bin fig9_overheads > results/fig9_overheads.txt 2>&1
cargo run --release -q -p sunstone-bench --bin table6_order  > results/table6_order.txt 2>&1
cargo run --release -q -p sunstone-bench --bin fig8_resnet_simba > results/fig8_resnet_simba.txt 2>&1
cargo run --release -q -p sunstone-bench --bin fig7_inception > results/fig7_inception.txt 2>&1
cargo run --release -q -p sunstone-bench --bin fig6_nondnn   > results/fig6_nondnn.txt 2>&1
cargo run --release -q -p sunstone-bench --bin ablation      > results/ablation.txt 2>&1
cargo run --release -q -p sunstone-bench --bin related_work  > results/related_work.txt 2>&1
cargo run --release -q -p sunstone-bench --bin network_chain > results/network_chain.txt 2>&1
cargo run --release -q -p sunstone-bench --bin padding_study > results/padding_study.txt 2>&1
cargo run --release -q -p sunstone-bench --bin arch_sweep    > results/arch_sweep.txt 2>&1
echo ALL_EXPERIMENTS_DONE
