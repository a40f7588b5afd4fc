/**
 * @file
 * 1-wide instantiation of the lane kernel: the interpreter behind
 * SimEngine::run on gradient designs and the scalar lane backend of
 * run_batch.  Compiled in every configuration (including
 * -DROBOSHAPE_SIMD=OFF) with no ISA flags and -ffp-contract=off (see
 * src/accel/CMakeLists.txt), so it runs on any host and rounds exactly
 * like plain scalar code.
 */

#define ROBOSHAPE_LANE_IMPL_WIDTH 1
#define ROBOSHAPE_LANE_IMPL_FN run_gradient_lanes_scalar
#include "accel/simd_lanes_impl.inl"
