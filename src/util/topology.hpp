// Physical CPU topology: sysfs probe + physical-core-first placement.
//
// McTilePlane pins its worker tiles to CPUs (mc/mc_plane.hpp). Naive
// pinning — tile i to CPU i mod hardware_concurrency — lands two busy
// tiles on the two hyperthreads of one physical core while whole cores
// idle, because Linux numbers SMT siblings after all primaries on some
// machines and interleaved on others. This module reads the kernel's
// own map (/sys/devices/system/cpu/cpu*/topology/) and plans
// placements that fill distinct physical cores first, falling back to
// SMT siblings only when every core already carries a tile.
//
// The sysfs probe is Linux-only and never fatal: on any other OS, a
// stripped container, or an unreadable sysfs it synthesizes a flat
// one-thread-per-core topology from hardware_concurrency, which makes
// physical-core-first placement degrade to the old i-mod-hw order.
// Everything below the probe is pure and unit-tested on synthetic
// topologies (tests/util/topology_test.cpp).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sskel {

/// One logical CPU and the physical core/package carrying it.
struct CpuSlot {
  int cpu = 0;      // logical CPU id (the id sched_setaffinity takes)
  int core = 0;     // topology/core_id
  int package = 0;  // topology/physical_package_id
};

struct CpuTopology {
  /// Online logical CPUs, ascending by cpu id.
  std::vector<CpuSlot> cpus;
  /// True when the slots came from sysfs; false for the synthesized
  /// fallback (each logical CPU its own core).
  bool probed = false;

  [[nodiscard]] std::size_t logical_count() const { return cpus.size(); }
  /// Distinct (package, core) pairs.
  [[nodiscard]] std::size_t physical_core_count() const;
  /// True when some physical core carries more than one logical CPU.
  [[nodiscard]] bool has_smt() const {
    return physical_core_count() < logical_count();
  }
};

/// Parses a kernel cpu-list ("0-3,8,10-11") into ascending CPU ids.
/// Malformed chunks are skipped rather than fatal (a truncated sysfs
/// read should degrade, not crash).
[[nodiscard]] std::vector<int> parse_cpu_list(std::string_view text);

/// A flat topology for `logical` CPUs: cpu i on core i, package 0.
[[nodiscard]] CpuTopology fallback_topology(unsigned logical);

/// Probes /sys/devices/system/cpu; falls back to fallback_topology
/// (hardware_concurrency) off-Linux or when sysfs is unreadable.
[[nodiscard]] CpuTopology probe_cpu_topology();

/// All logical CPUs in physical-core-first order: the lowest-numbered
/// CPU of each (package, core) pair first (ascending package, core),
/// then the second SMT sibling of every core, and so on — so the first
/// physical_core_count() entries all sit on distinct cores.
[[nodiscard]] std::vector<int> physical_first_order(
    const CpuTopology& topology);

/// CPU id for each of `tiles` tiles: physical_first_order cycled when
/// tiles exceed the logical CPU count. Empty only when the topology
/// has no CPUs.
[[nodiscard]] std::vector<int> plan_tile_cpus(const CpuTopology& topology,
                                              unsigned tiles);

/// "0,2,4,1" rendering for placement maps in reports and bench JSON
/// ("" for an empty plan).
[[nodiscard]] std::string cpu_list_to_string(const std::vector<int>& cpus);

}  // namespace sskel
