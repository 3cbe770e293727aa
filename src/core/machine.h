// Machine resource descriptions (paper §5 "Hardware").
//
// The analysis only needs core count, memory capacity, a CPU speed
// scale, and the metered devices: the storage behind the training
// data, an optional scratch tier, and the host NIC. The three
// evaluation setups are provided as presets; byte-denominated fields
// are scaled by the same factor the synthetic datasets use (see
// workloads/datagen.h) so every ratio the paper reports is preserved.
#pragma once

#include <cstdint>
#include <string>

#include "src/io/storage_device.h"

namespace plumber {

struct MachineSpec {
  std::string name;
  int num_cores = 8;
  uint64_t memory_bytes = 1ULL << 30;
  // Multiplies UDF CPU cost: >1 means slower cores.
  double cpu_scale = 1.0;
  DeviceSpec storage = DeviceSpec::Unlimited();
  // Local scratch tier (SSD) for disk-tier cache materialization
  // (paper §4.1 extensions). Disabled until both a bandwidth and a
  // capacity are set: scratch_bytes = 0 or scratch.max_bandwidth = 0
  // means there is no disk tier and the cache pass only considers
  // DRAM.
  DeviceSpec scratch = DeviceSpec::Unlimited();
  uint64_t scratch_bytes = 0;
  // Host NIC: a device with a per-transfer latency and no per-stream
  // cap (DeviceSpec::Gigabit, TenGigabit or TokenBucketLimit).
  // Unlimited by default, so single-host machines without a network
  // model behave exactly as before; fleet hosts and remote-read
  // sessions set a real bandwidth/latency here.
  DeviceSpec nic = DeviceSpec::Unlimited();

  // Setup A: consumer-grade AMD 2700X, 16 cores, 32 GiB.
  static MachineSpec SetupA(double byte_scale = 1.0);
  // Setup B: enterprise Xeon E5-2698Bv3, 32 slower cores, 64 GiB.
  static MachineSpec SetupB(double byte_scale = 1.0);
  // Setup C: TPUv3-8 host, 96 cores, 300 GB, cloud storage.
  static MachineSpec SetupC(double byte_scale = 1.0);
};

inline MachineSpec MachineSpec::SetupA(double byte_scale) {
  MachineSpec m;
  m.name = "setup_a";
  m.num_cores = 16;
  m.memory_bytes = static_cast<uint64_t>(32.0 * (1ULL << 30) * byte_scale);
  m.cpu_scale = 1.0;
  return m;
}

inline MachineSpec MachineSpec::SetupB(double byte_scale) {
  MachineSpec m;
  m.name = "setup_b";
  m.num_cores = 32;
  m.memory_bytes = static_cast<uint64_t>(64.0 * (1ULL << 30) * byte_scale);
  // Older 2GHz cores: lower per-core decode rate (paper: B's per-core
  // rates are lower, 2x cores only buys ~1.2x throughput).
  m.cpu_scale = 1.65;
  return m;
}

inline MachineSpec MachineSpec::SetupC(double byte_scale) {
  MachineSpec m;
  m.name = "setup_c";
  m.num_cores = 96;
  m.memory_bytes = static_cast<uint64_t>(300e9 * byte_scale);
  m.cpu_scale = 1.0;
  return m;
}

}  // namespace plumber
