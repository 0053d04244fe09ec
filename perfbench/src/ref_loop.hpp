// A fixed reference loop that measures how fast the host runs right now.
//
// The benchmark shares its host, and other load on it changes the speed of
// every program for minutes at a time: a median over a run's repetitions
// can lose a quarter of its value while the load lasts. The loop does a
// fixed amount of the kinds of work the simulator does (integer mixing, an
// ordered map of small heap blocks, and streaming XOR/copy over a buffer
// larger than L2), so it slows down with the host much as the simulator
// does. Scaling the simulator's times by the loop's time, measured right
// after the same fabric ran, cancels most of the host's drift.
//
// The loop is part of the benchmark's definition: changing its work changes
// every normalised figure, so it must stay as it is for results to compare.
#pragma once

namespace perfbench {

/// Host seconds one pass of the reference loop takes on a quiet host of
/// the kind the benchmark was defined on (4-core Xeon, gcc 12, Release).
/// Normalised figures are expressed in these reference seconds.
constexpr double kRefLoopNominalS = 0.012;

/// Runs one pass of the loop on the calling thread and returns its wall
/// seconds. Not thread-safe: call it from one thread only.
double run_ref_loop();

}  // namespace perfbench
