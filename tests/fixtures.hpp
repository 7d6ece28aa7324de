// Shared test fixtures.
#pragma once

#include "scenarios/two_stacks.hpp"

namespace cherinet::test {

/// The library's deterministic twin-stack rig (scenarios/two_stacks.hpp),
/// shared with the benches and examples that need a peer stack.
using scen::TwoStacks;

}  // namespace cherinet::test
