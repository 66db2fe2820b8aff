// Command perfbench measures the vRead simulator from outside: the host time
// it takes to run the paper's TestDFSIO read and write paths (§5.2, Figs
// 11–13) and the sharded read storm, checked against recorded outputs and
// split by layer.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this package from the checkout's source (everything under
// .bench_build/) and runs it. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the line before it,
// "record {...}", repeats the result with the host fingerprint (GOMAXPROCS,
// nproc, CPU model, Go version), the workload and the seed. Save the output
// of two sets of runs and
//
//	bash perfbench/run.sh -compare a.txt b.txt
//
// prints each metric's median on both sides; it refuses records measured on
// different hosts.
//
// # Workloads
//
// Every workload runs in one process. The DFSIO workloads run their cells
// one after another (Options.Parallel 1), each cell a whole two-host testbed
// on its own Env, at 2.0 GHz, five files of 16 MiB per cell.
//
//   - read-vanilla: the Fig 11/12 read cells with vRead off — co-located,
//     remote and hybrid placement, with 2 and 4 VMs (the 4-VM cells add the
//     85% lookbusy neighbours). Set-up builds the testbeds and writes the
//     dataset; a round drops every cache and reads the dataset cold, then
//     warm. This is the paper's 5-copy baseline: virtio, guest TCP, netsim
//     and cpusched do the work and core does none. Chosen as the path every
//     vRead gain is measured against, and as the workload on which a change
//     to core must show no effect.
//   - read-vread: the same cells and rounds with vRead on. Reads go
//     libvread → ring → daemon → host page cache, or daemon to daemon over
//     RDMA for remote blocks; virtio and guest TCP leave the read path and
//     core and storage take it over. Chosen because it is the paper's
//     subject and has the costliest host events.
//   - write-refresh: the Fig 13 cells, vanilla and vRead for each
//     placement, 2 VMs. Set-up builds the testbeds and writes the dataset
//     once as a warm-up; a round deletes the files (untimed) and writes them
//     again (timed), including vRead's dentry refresh. Chosen because it
//     runs hdfs, guest, fsim and storage for writes, so a read-path gain
//     that costs writes shows here.
//   - shard-storm: RunShardGrid on a 16-host topology, 4 client hosts × 4
//     closed-loop streams of 2048 reads of 256 KiB each, at K=1 and then
//     K=2 shards; the two fingerprints must be equal. Chosen because it is
//     the only workload on internal/sim/shard; the other three run on one
//     Env per cell. K=2 is the timed part.
//
// --seed selects the bytes every DFSIO file holds (data.Pattern at seed+1)
// and the testbeds' random sources (Options.Seed and ShardGridConfig.Seed
// at seed+1, since 0 would select the default). The quiet runs here never
// draw from those sources, so the simulated work — sizes, placement,
// virtual times, event counts — is the same at every seed; what differs is
// the data, which the read-back check below compares.
//
// # End-to-end metrics (--trace 0)
//
// All are host measurements, tracing off, in the one process. After the
// set-up, three untimed warm-up rounds run with the heap sampler on; then
// rounds of timed work run until --seconds have passed.
//
//   - wall_s: host seconds of one round of timed work: the sum over the
//     round's timed parts (one per DFSIO cell; the K=2 call for
//     shard-storm) of each part's median across the timed rounds.
//   - cpu_s: the same for process CPU seconds (getrusage, every thread), so
//     work moved onto the garbage collector's second core shows.
//   - setup_s: median host seconds of one set-up, which the run repeats at
//     least three times and for at least 1 s. For the DFSIO workloads it is
//     the testbed build plus the dataset write (the warm-up write for
//     write-refresh); for shard-storm it is the same RunShardGrid call at
//     one read per stream, since the cluster build happens inside the call.
//     The warm-up rounds are not part of it: they repeat the timed work.
//   - peak_heap_mb: the highest heap in use (runtime/metrics
//     /memory/classes/heap/objects:bytes, sampled every millisecond) over
//     the warm-up rounds, on the built state — a fixed amount of work, since
//     the simulator's live heap grows slowly from round to round, and one
//     no timed span shares the CPU with.
//
// failed/attempted in the result line is the failed fraction: a checked
// operation fails on an error, a virtual-deadline miss, a golden mismatch
// or a byte mismatch. It is normally 0, so it is not an end-to-end metric
// with a bound; the traced run also reports it as failed_frac.
//
// # Checks
//
// Every DFSIO job, shard-storm call and set-up is one checked line of
// simulated output (bytes, virtual job time, I/O time, vCPU cycles, event
// count; fingerprint, events and SLO rows for the storm). golden.json
// holds, per workload, the digest of every line of the set-up and of the
// first 32 rounds, and every run at every seed is checked against it: the
// lines do not depend on the seed (above), which TestGoldenHoldsAtHeldOutSeed
// confirms at a seed the golden was not recorded at. After an intended
// change to the simulation, re-record each workload's entry with
//
//	bash perfbench/run.sh --workload <name> --seed 1 --record-golden 32 --golden-file perfbench/golden.json
//
// Beyond the golden's rounds, every set-up repetition must reproduce the
// first, every storm round must reproduce the others, K=2 must reproduce
// K=1, and a traced run's rounds must reproduce its untraced rounds. After
// the timed work, outside it, four 128 KiB samples of every DFSIO file are
// read back through the cell's own client (libvread when vRead is on) and
// compared byte for byte with the data.Pattern the file was written from at
// this seed.
//
// The simulator is checked for shape only: the repository holds no numeric
// reference values from the paper, so no accuracy error is reported.
//
// # Per-layer metrics (--trace 1)
//
// A traced run spends half its time untraced and half with the request
// tracer (Options.Traces) and the CPU profiler on; both halves start from a
// fresh set-up and must produce the same simulated lines. The difference in
// wall_s between the halves is trace.overhead_s.
//
// Host-CPU share per layer, from the CPU profile of the traced half's timed
// work, folded by this package with no external tool: "<layer>.host_frac"
// for the modules sim, shard (internal/sim/shard), cpusched, virtio, guest,
// netsim, core (libvread, ring and daemon), storage, fsim, hdfs, mapred,
// workload, metrics, trace, data, cluster, experiments, faults and par,
// plus bench (this program), other (any other vread frame) and go (stacks
// with no vread frame). A sample is charged to its innermost vread frame,
// so runtime callees count against the layer that called them, and the
// shares add up to 1. go.gc_frac and go.other_frac split go.host_frac into
// collector work and the rest; go.malloc_frac and go.handoff_frac cut
// across layers by the runtime frames at the leaf (the allocator; channel,
// park, schedule and futex). The profiler asks for 1000 Hz; the kernel's
// timer tick may deliver fewer, so profile.samples reports how many there
// were.
//
// From the untraced half: go.allocs_per_event, go.alloc_bytes_per_event and
// go.gc_cpu_frac (runtime/metrics deltas over every simulated event of the
// rounds), and the benchmark-side spans phase.{build,write,read_cold,
// read_warm,verify}_s (median host seconds over set-ups or rounds, summed
// over cells), each with .events (the exact Env.Fired delta of the first
// one) and .ns_per_event; shard.k1_wall_s, shard.k2_wall_s, shard.speedup
// and shard.events. The verify span runs once, after the last round, so its
// event count depends on how many rounds the run had time for.
//
// Simulated statistics, exact (as of the end of the first round, summed
// over cells), which a change to simulator speed must leave unchanged:
// hdfs.read_mb_s and hdfs.write_mb_s (TestDFSIO throughput),
// cpusched.client_cpu_ms, guest.cache_hit_ratio,
// storage.host_cache_hit_ratio, storage.disk_read_mb,
// storage.disk_write_mb, core.lib_reads, core.open_fallback_ratio,
// core.retries, core.bytes_local_mb, core.bytes_remote_mb, core.refreshes, and span.<layer>.{count,p50_us,p99_us}
// for the ten trace layers over the first round's request traces. A layer
// a workload does not exercise reads 0.
//
// # Which end-to-end metric each layer metric should move
//
//	layer metric                          end-to-end metric   workload
//	core.host_frac                        wall_s              read-vread (not read-vanilla)
//	virtio, guest, netsim .host_frac      wall_s              read-vanilla
//	                                      setup_s             read-vread
//	hdfs, fsim, storage .host_frac        wall_s              write-refresh
//	                                      setup_s             read-vanilla, read-vread
//	shard.host_frac, shard.*              wall_s              shard-storm only
//	sim, go.handoff_frac, go.malloc_frac  wall_s, cpu_s       every workload
//	cpusched, metrics, trace .host_frac   wall_s, cpu_s       every workload
//	go.allocs_per_event,                  cpu_s, wall_s,      every workload
//	go.alloc_bytes_per_event,             peak_heap_mb
//	go.gc_cpu_frac
//
// A gain in a layer that applies to every workload should be largest where
// that layer's traced share is largest.
package main
