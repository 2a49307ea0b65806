#!/bin/sh
# Everything CI would run for this package. The root workspace does not
# list `benchmark/`, so the root's checks never see it; run this instead.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- run --smoke
cargo run --offline --release --quiet -- trace --smoke
