// Package vread is a full functional reproduction, in pure Go, of
// "vRead: Efficient Data Access for Hadoop in Virtualized Clouds"
// (Xu, Saltaformaggio, Gamage, Kompella, Xu — ACM Middleware 2015).
//
// The paper's artifact is a modified KVM hypervisor; this library rebuilds
// the entire substrate as a deterministic discrete-event emulation — host
// CPUs under a CFS-like scheduler, virtio/vhost devices, guest kernels with
// page caches and sockets, disk-image file systems, a 10 Gbps RoCE LAN, and
// a functional HDFS — and implements vRead itself (libvread, the guest ring
// driver, and the per-VM hypervisor daemon) on top. Bytes really flow end to
// end; every copy, kick, interrupt and context switch charges a virtual
// clock, so the paper's figures and tables regenerate as emergent behavior.
//
// Three levels of API:
//
//   - experiment level: NewTestbed + the Run* functions regenerate every
//     figure and table of the paper's evaluation (see bench_test.go and
//     cmd/vread-bench);
//   - deployment level: NewCluster / NewNameNode / StartDataNode /
//     NewVReadManager build arbitrary virtual Hadoop clusters with or
//     without vRead (see examples/);
//   - substrate level: the simulation engine, scheduler, device and network
//     models are exposed for building different systems on the same
//     machinery.
//
// Everything is deterministic: the same seed reproduces identical results
// to the nanosecond.
package vread

import (
	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/cpusched"
	"vread/internal/experiments"
	"vread/internal/faults"
	"vread/internal/guest"
	"vread/internal/hdfs"
	"vread/internal/mapred"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/qfs"
	"vread/internal/sim"
	"vread/internal/storage"
	"vread/internal/trace"
	"vread/internal/workload"
)

// ---------------------------------------------------------------------------
// Simulation engine.

// Env is the discrete-event simulation environment.
type Env = sim.Env

// Proc is a simulated process (coroutine).
type Proc = sim.Proc

// NewEnv creates a simulation environment with a deterministic seed.
func NewEnv(seed int64) *Env { return sim.NewEnv(seed) }

// ---------------------------------------------------------------------------
// Cluster substrate.

// Cluster is a simulated testbed of hosts and VMs.
type Cluster = cluster.Cluster

// Host is one physical machine (CPU, SSD, page cache, NIC).
type Host = cluster.Host

// VM is one virtual machine (vCPU/vhost threads, virtio devices, guest
// kernel, disk-image file system).
type VM = cluster.VM

// ClusterParams configures hosts and VMs.
type ClusterParams = cluster.Params

// NewCluster creates an empty cluster.
func NewCluster(seed int64, params ClusterParams) *Cluster {
	return cluster.New(seed, params)
}

// Kernel is a VM's guest operating system (sockets + files).
type Kernel = guest.Kernel

// CPU is a host processor model; Thread is a host-schedulable thread.
type CPU = cpusched.CPU

// Thread is one host-schedulable execution context.
type Thread = cpusched.Thread

// Registry accumulates CPU-cycle, latency and throughput measurements.
type Registry = metrics.Registry

// Fabric is the LAN connecting hosts.
type Fabric = netsim.Fabric

// Disk is a physical storage device model.
type Disk = storage.Disk

// PageCache is an LRU page cache (guest- or host-level).
type PageCache = storage.PageCache

// ---------------------------------------------------------------------------
// HDFS.

// NameNode holds HDFS metadata.
type NameNode = hdfs.NameNode

// DataNode serves blocks from inside a VM.
type DataNode = hdfs.DataNode

// DFSClient is the HDFS client with the paper's read1/read2 paths.
type DFSClient = hdfs.Client

// DFSFileReader is an open DFSInputStream.
type DFSFileReader = hdfs.FileReader

// HDFSConfig holds HDFS parameters.
type HDFSConfig = hdfs.Config

// NewNameNode creates a namenode over the cluster fabric.
func NewNameNode(env *Env, cfg HDFSConfig, topo hdfs.Topology) *NameNode {
	return hdfs.NewNameNode(env, cfg, topo)
}

// StartDataNode boots a datanode inside a VM kernel.
func StartDataNode(env *Env, nn *NameNode, kernel *Kernel) *DataNode {
	return hdfs.StartDataNode(env, nn, kernel)
}

// NewDFSClient creates a DFSClient inside a VM kernel.
func NewDFSClient(env *Env, nn *NameNode, kernel *Kernel) *DFSClient {
	return hdfs.NewClient(env, nn, kernel)
}

// ---------------------------------------------------------------------------
// Federated namespace (sharded namenodes, consistent-hash placement).

// Namespace is the metadata service interface both the standalone NameNode
// and the federation NamespaceRouter implement.
type Namespace = hdfs.Namespace

// NamespaceRouter fronts a federation of namespace shards: a mount table
// (plus hash routing) maps paths to shards, block IDs are striped so they
// stay cluster-unique, and a shared consistent-hash ring places replicas
// across fault domains.
type NamespaceRouter = hdfs.Router

// RouterOptions tunes a federation (shard count, ring seed, virtual nodes,
// shard failover delay).
type RouterOptions = hdfs.RouterOptions

// HashRing is the deterministic consistent-hash ring (virtual nodes,
// fault-domain-aware replica selection).
type HashRing = hdfs.Ring

// BlockPlacement describes where one block of a path lives (shard, ring
// position, replicas with their racks and fault domains).
type BlockPlacement = hdfs.Placement

// TopologySpec describes a regular datacenter fabric: Domains fault
// domains × RacksPerDomain racks × HostsPerRack hosts.
type TopologySpec = cluster.TopologySpec

// NewNamespaceRouter creates a federation of namespace shards over one
// topology.
func NewNamespaceRouter(env *Env, cfg HDFSConfig, topo hdfs.Topology, opt RouterOptions) *NamespaceRouter {
	return hdfs.NewRouter(env, cfg, topo, opt)
}

// NewHashRing creates an empty consistent-hash ring (vnodes <= 0 selects
// the default 64 virtual nodes per member).
func NewHashRing(seed int64, vnodes int) *HashRing { return hdfs.NewRing(seed, vnodes) }

// ---------------------------------------------------------------------------
// vRead.

// VReadManager assembles vRead over a cluster: image mounts, per-host
// daemon servers, per-client rings and libvread instances.
type VReadManager = core.Manager

// VReadConfig holds vRead parameters (ring geometry, transports, costs).
type VReadConfig = core.Config

// VReadLib is libvread: the client-side library installed on a DFSClient.
type VReadLib = core.Lib

// Transport selects the remote daemon-to-daemon transport.
type Transport = core.Transport

// Remote transports.
const (
	TransportRDMA = core.TransportRDMA
	TransportTCP  = core.TransportTCP
)

// NewVReadManager creates the vRead system over a cluster and namenode.
// Call MountDatanode for each datanode VM, EnableClient for each client VM,
// and install the returned library with DFSClient.SetBlockReader.
func NewVReadManager(c *Cluster, nn *NameNode, cfg VReadConfig) *VReadManager {
	if nn == nil {
		// An untyped nil avoids handing NewManager a non-nil Namespace
		// interface wrapping a nil *NameNode.
		return core.NewManager(c, nil, cfg)
	}
	return core.NewManager(c, nn, cfg)
}

// NewFederatedVReadManager creates the vRead system over a cluster and a
// federated namespace router.
func NewFederatedVReadManager(c *Cluster, ro *NamespaceRouter, cfg VReadConfig) *VReadManager {
	if ro == nil {
		return core.NewManager(c, nil, cfg)
	}
	return core.NewManager(c, ro, cfg)
}

// DaemonEntity returns the metrics entity that vRead hypervisor work on a
// host is charged to.
func DaemonEntity(host string) string { return core.DaemonEntity(host) }

// DaemonStats holds one vRead daemon's counters, derived from its event
// stream. Retrieve them with VReadManager.DaemonStats(vmName).
type DaemonStats = core.DaemonStats

// LibStats holds one libvread instance's counters. Retrieve them with
// VReadManager.LibStats(vmName).
type LibStats = core.LibStats

// RingSnapshot is a quiesced ring's captured state: the in-flight request
// descriptors VReadManager.RingSnapshot drained, replayable after a
// VReadManager.RingRestore.
type RingSnapshot = core.RingSnapshot

// MountMigration reports one live mount migration: the hosts involved, the
// read blackout it imposed, and how many rings and descriptors rode through
// it. Produced by VReadManager.MigrateMount.
type MountMigration = core.MountMigration

// ---------------------------------------------------------------------------
// Tracing: the per-request observability spine. Install a Tracer on a
// DFSClient or QFSClient with SetTracer; every layer of the read path then
// records spans, events and CPU-cycle charges on sampled requests.

// Trace is one request's journey through the read path.
type Trace = trace.Trace

// TraceSpan is one timed stage of a request.
type TraceSpan = trace.Span

// TraceLayer identifies the architectural layer a span belongs to.
type TraceLayer = trace.Layer

// Tracer samples requests at client entry points into a TraceCollector.
type Tracer = trace.Tracer

// TraceCollector accumulates finished traces.
type TraceCollector = trace.Collector

// StageStat summarizes one (layer, span) stage across traces: count, bytes,
// and latency percentiles.
type StageStat = trace.StageStat

// NewTracer creates a tracer sampling every Nth request.
func NewTracer(env *Env, every int) *Tracer { return trace.NewTracer(env, every) }

// NewTracerInto is NewTracer appending into a shared collector.
func NewTracerInto(env *Env, every int, col *TraceCollector) *Tracer {
	return trace.NewTracerInto(env, every, col)
}

// Trace exporters and reducers.
var (
	// WriteChromeTrace writes traces as Chrome trace_event JSON
	// (chrome://tracing, Perfetto).
	WriteChromeTrace = trace.WriteChrome
	// WriteTraceSpansCSV writes one CSV row per span.
	WriteTraceSpansCSV = trace.WriteSpansCSV
	// TraceStages reduces traces to per-stage latency percentiles.
	TraceStages = trace.Stages
	// WriteTraceStagesCSV writes the per-stage statistics as CSV.
	WriteTraceStagesCSV = trace.WriteStagesCSV
)

// ---------------------------------------------------------------------------
// QFS (the §3 generalization: a second DFS served by the same vRead).

// QFSMetaServer tracks QFS file → chunk metadata.
type QFSMetaServer = qfs.MetaServer

// QFSChunkServer stores chunk files inside a VM.
type QFSChunkServer = qfs.ChunkServer

// QFSClient reads and writes chunk-striped files.
type QFSClient = qfs.Client

// QFSConfig holds QFS parameters.
type QFSConfig = qfs.Config

// NewQFSMetaServer creates a QFS metaserver.
func NewQFSMetaServer(env *Env, cfg QFSConfig) *QFSMetaServer {
	return qfs.NewMetaServer(env, cfg)
}

// StartQFSChunkServer boots a chunk server in a VM kernel.
func StartQFSChunkServer(env *Env, ms *QFSMetaServer, kernel *Kernel) *QFSChunkServer {
	return qfs.StartChunkServer(env, ms, kernel)
}

// NewQFSClient creates a QFS client in a VM kernel.
func NewQFSClient(env *Env, ms *QFSMetaServer, kernel *Kernel) *QFSClient {
	return qfs.NewClient(env, ms, kernel)
}

// QFSPathReader adapts a client VM's libvread into QFS's reader hook.
func QFSPathReader(lib *VReadLib) qfs.PathReader {
	return qfs.PathReaderFunc(func(p *Proc, tr *trace.Trace, server, path, key string) (qfs.Handle, bool) {
		return lib.OpenPath(p, tr, server, path, key)
	})
}

// UseVReadWithQFS wires a client VM's libvread into a QFS client and
// subscribes the manager to the metaserver's refresh events. Call it once,
// before any QFS writes; toggle the shortcut afterwards with
// client.SetPathReader(QFSPathReader(lib)) / SetPathReader(nil).
func UseVReadWithQFS(mgr *VReadManager, ms *QFSMetaServer, client *QFSClient, lib *VReadLib) {
	ms.AddListener(mgr)
	client.SetPathReader(QFSPathReader(lib))
}

// ---------------------------------------------------------------------------
// Workloads.

// MapRedEngine is the miniature MapReduce engine.
type MapRedEngine = mapred.Engine

// MapRedConfig configures it.
type MapRedConfig = mapred.Config

// NewMapRedEngine creates an engine.
func NewMapRedEngine(env *Env, cfg MapRedConfig) *MapRedEngine {
	return mapred.NewEngine(env, cfg)
}

// DFSIOConfig parameterizes TestDFSIO runs.
type DFSIOConfig = workload.DFSIOConfig

// DFSIOResult is a TestDFSIO outcome.
type DFSIOResult = workload.DFSIOResult

// StartLookbusy runs an 85%-style CPU hog in a VM.
var StartLookbusy = workload.StartLookbusy

// StartNetperfServer and RunNetperfRR drive the Figure 3 microbenchmark.
var (
	StartNetperfServer = workload.StartNetperfServer
	RunNetperfRR       = workload.RunNetperfRR
)

// RunDFSIOWrite / RunDFSIORead drive TestDFSIO.
var (
	RunDFSIOWrite = workload.RunDFSIOWrite
	RunDFSIORead  = workload.RunDFSIORead
)

// ---------------------------------------------------------------------------
// Experiments: every figure and table of §5.

// Options configures one experiment testbed.
type Options = experiments.Options

// Testbed is a built instance of the paper's Figure 10 topology.
type Testbed = experiments.Testbed

// RunStats accumulates engine totals (simulated event counts) across every
// testbed an experiment builds; set Options.Stats to collect them.
type RunStats = experiments.RunStats

// Scenario places replicas relative to the reader.
type Scenario = experiments.Scenario

// Scenarios of §5.2.
const (
	Colocated = experiments.Colocated
	Remote    = experiments.Remote
	Hybrid    = experiments.Hybrid
)

// NewTestbed builds the two-host testbed of Figure 10.
func NewTestbed(opt Options) *Testbed { return experiments.NewTestbed(opt) }

// ParseOptions decodes a JSON scenario file (see cmd/vread-sim -config)
// into Options and a placement Scenario.
var ParseOptions = experiments.ParseOptions

// ParseScaleOptions decodes a scenario file and reports whether it selects
// the datacenter-scale path ("scale_out" present).
var ParseScaleOptions = experiments.ParseScaleOptions

// ScaleConfig describes a datacenter-scale scenario: a federated namespace
// over a multi-domain topology driven by an open-loop read storm, with an
// optional mid-storm rack kill.
type ScaleConfig = experiments.ScaleConfig

// SLORow is one p50/p95/p99 read-latency row of a scale run.
type SLORow = experiments.SLORow

// RunScale runs one federated scale cell per QPS level and returns SLO rows
// (byte-identical between serial and parallel runs).
var RunScale = experiments.RunScale

// RenderSLORows renders SLO rows one per line.
var RenderSLORows = experiments.RenderSLORows

// MigrationConfig describes the live-mount-migration blackout sweep: reader
// depths, the per-stream storm, and when the cutover fires.
type MigrationConfig = experiments.MigrationConfig

// MigrationRow is one depth's blackout measurement: quiesce window, captured
// in-flight descriptors, and worst read latency inside vs outside it.
type MigrationRow = experiments.MigrationRow

// RunMigrationSweep live-migrates a datanode's mount out from under
// concurrent reader streams, one cell per depth. Zero lost or corrupted reads
// is the contract; rows are byte-identical between serial and parallel runs.
var RunMigrationSweep = experiments.RunMigrationSweep

// CSVMigration renders migration sweep rows as CSV; FormatMigration as an
// aligned table.
var (
	CSVMigration    = experiments.CSVMigration
	FormatMigration = experiments.FormatMigration
)

// ParseMigrateOptions decodes a scenario file and reports whether it selects
// the migration sweep ("migrate" present).
var ParseMigrateOptions = experiments.ParseMigrateOptions

// ShardGridConfig describes a sharded read-storm scenario: a topology of
// single-Env-per-host LPs advanced in parallel under conservative lookahead,
// with closed-loop client streams reading from datanode hosts.
type ShardGridConfig = experiments.ShardGridConfig

// ShardGridCell is one shard count's run of the grid: K-invariant rows and
// fingerprint plus the wall clock that the shards are meant to shrink.
type ShardGridCell = experiments.ShardGridCell

// RunShardGrid runs the sharded read storm once per configured shard count.
// Rows, fingerprints, and event counts are byte-identical across counts.
var RunShardGrid = experiments.RunShardGrid

// Experiment runners, one per paper artifact.
var (
	RunFig2       = experiments.RunFig2
	RunFig3       = experiments.RunFig3
	RunFig6       = experiments.RunFig6
	RunFig7       = experiments.RunFig7
	RunFig8       = experiments.RunFig8
	RunFig9       = experiments.RunFig9
	RunFig11and12 = experiments.RunFig11and12
	RunDFSIOPoint = experiments.RunDFSIOPoint
	RunFig13      = experiments.RunFig13
	RunTable2     = experiments.RunTable2
	RunTable3     = experiments.RunTable3
)

// Per-stage latency reducers (delay and DFSIO experiments with every
// request traced, reduced to p50/p95/p99 per stage).
var (
	RunDelayStages = experiments.RunDelayStages
	RunDFSIOStages = experiments.RunDFSIOStages
)

// Ablation runners for the design choices DESIGN.md calls out.
var (
	RunAblationRingSlots    = experiments.RunAblationRingSlots
	RunAblationDirectRead   = experiments.RunAblationDirectRead
	RunAblationTransport    = experiments.RunAblationTransport
	RunAblationShortCircuit = experiments.RunAblationShortCircuit
	RunAblationSRIOV        = experiments.RunAblationSRIOV
	RunFaultSweep           = experiments.RunFaultSweep
)

// ---------------------------------------------------------------------------
// Deterministic fault injection (DESIGN.md §9).

// FaultSpec is a parsed set of fault rules; build one with ParseFaultSpec or
// literal FaultRule values, then arm it via Options.Faults or FaultSpec.Plan.
type FaultSpec = faults.Spec

// FaultRule arms one faultpoint (probability, after-N, one-shot, delay).
type FaultRule = faults.Rule

// FaultPlan is an armed, seeded fault plan bound to one Env.
type FaultPlan = faults.Plan

// FaultPointCount reports one faultpoint's evaluation and fire tallies.
type FaultPointCount = faults.PointCount

// FaultProfile names one fault mix of the RunFaultSweep ablation.
type FaultProfile = experiments.FaultProfile

// ParseFaultSpec parses "point[:opt,...][;point...]" syntax, e.g.
// "disk.read.slow:p=0.2,delay=2ms;rdma.qp.teardown:after=100,max=1".
var ParseFaultSpec = faults.ParseSpec

// FaultPoints lists every registered faultpoint name.
var FaultPoints = faults.Points

// DefaultFaultProfiles is RunFaultSweep's standard resilience grid.
var DefaultFaultProfiles = experiments.DefaultFaultProfiles

// NewFaultPlan creates an empty plan bound to env; arm points with Set.
func NewFaultPlan(env *Env) *FaultPlan { return faults.NewPlan(env) }

// Row types.
type (
	// Fig2Row is one Figure 2 measurement.
	Fig2Row = experiments.Fig2Row
	// Fig3Row is one Figure 3 measurement.
	Fig3Row = experiments.Fig3Row
	// BreakdownRow is one stacked bar of Figures 6–8.
	BreakdownRow = experiments.BreakdownRow
	// Fig9Row is one Figure 9 measurement.
	Fig9Row = experiments.Fig9Row
	// DFSIORow is one Figures 11/12 grid point.
	DFSIORow = experiments.DFSIORow
	// Fig13Row is one Figure 13 measurement.
	Fig13Row = experiments.Fig13Row
	// Table2Row is one Table 2 row.
	Table2Row = experiments.Table2Row
	// Table3Row is one Table 3 row.
	Table3Row = experiments.Table3Row
	// AblationRow is one ablation measurement.
	AblationRow = experiments.AblationRow
)

// Formatters render rows the way the paper reports them.
var (
	FormatFig2       = experiments.FormatFig2
	FormatFig3       = experiments.FormatFig3
	FormatBreakdowns = experiments.FormatBreakdowns
	FormatFig9       = experiments.FormatFig9
	FormatDFSIO      = experiments.FormatDFSIO
	FormatFig13      = experiments.FormatFig13
	FormatTable2     = experiments.FormatTable2
	FormatTable3     = experiments.FormatTable3
	FormatAblations  = experiments.FormatAblations
)

// PaperFreqs is the paper's 1.6/2.0/3.2 GHz cpufreq sweep.
var PaperFreqs = experiments.PaperFreqs

// CSV exporters for every experiment row type (cmd/vread-bench -format csv).
var (
	CSVFig2       = experiments.CSVFig2
	CSVFig3       = experiments.CSVFig3
	CSVBreakdowns = experiments.CSVBreakdowns
	CSVFig9       = experiments.CSVFig9
	CSVDFSIO      = experiments.CSVDFSIO
	CSVFig13      = experiments.CSVFig13
	CSVTable2     = experiments.CSVTable2
	CSVTable3     = experiments.CSVTable3
	CSVAblations  = experiments.CSVAblations
)
