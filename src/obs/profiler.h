// gtv::obs — op-level profiler for the autograd/tensor substrate.
//
// An OpScope wraps one op invocation (ag::matmul forward, a backward
// closure, nn::Linear::forward, ...). Scopes nest on a per-thread stack, so
// each op is charged both its *total* wall time and its *self* time (total
// minus nested profiled ops); self times therefore partition the wall clock
// and sum to the instrumented region's duration without double counting.
// make_op additionally charges the bytes of every operand/result tensor to
// the innermost open scope, giving a bytes-touched column per op.
//
// Gating follows the ScopedTimer disarm discipline: profiling is off by
// default, switched on by GTV_PROFILE (any value except "0") or
// set_profiling_enabled(); a disarmed OpScope is a single relaxed atomic
// load and never reads the clock.
//
// Profiler::report() renders the aggregate as a sorted text table;
// Profiler::to_json() emits the machine-readable form (stamped with
// "schema_version" so downstream tooling such as gtv-obs prof can evolve
// safely).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace gtv::obs {

// Global switch for op profiling (see file comment).
bool profiling_enabled();
void set_profiling_enabled(bool enabled);

struct OpStats {
  std::uint64_t calls = 0;
  std::uint64_t total_us = 0;  // wall time inside the op, children included
  std::uint64_t self_us = 0;   // total_us minus time in nested profiled ops
  std::uint64_t bytes = 0;     // operand + result tensor bytes touched
};

class Profiler {
 public:
  static Profiler& instance();

  void record(const char* name, const char* suffix, std::uint64_t total_us,
              std::uint64_t self_us, std::uint64_t bytes);

  std::map<std::string, OpStats> snapshot() const;
  // Text table sorted by self time (descending) with a totals row.
  std::string report() const;
  // {"schema_version":N,"ops":{"<op>":{"calls":..,"total_us":..,...}}}
  std::string to_json() const;
  void reset();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

 private:
  Profiler() = default;

  mutable std::mutex mu_;
  std::map<std::string, OpStats> stats_;
};

// RAII op span. `suffix` (e.g. ".bwd") is appended to the op name at
// aggregation time so backward closures share the forward op's label space.
class OpScope {
 public:
  explicit OpScope(const char* name, const char* suffix = nullptr);
  ~OpScope();

  // Charges tensor bytes to the innermost open scope on this thread.
  // No-op when profiling is off or no scope is open.
  static void charge_bytes(std::uint64_t bytes);

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  const char* name_;
  const char* suffix_;
  std::uint64_t start_us_ = 0;
  std::uint64_t saved_child_us_ = 0;
  std::uint64_t saved_bytes_ = 0;
  bool active_;
};

}  // namespace gtv::obs
