package core

import (
	"fmt"

	"vread/internal/cluster"
	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/fsim"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
	"vread/internal/trace"
)

// VReadPort is the host-terminated port of the daemons' TCP transport.
const VReadPort = 51000

// remoteReq asks a peer host's daemon to open or read a block file. tr rides
// along so the serving host charges its work to the originating request.
type remoteReq struct {
	reqID    int64
	fromHost string
	dn       string
	path     string
	off      int64
	n        int64
	open     bool
	tr       *trace.Trace
}

// remoteChunk is one response unit (data chunk or open reply). off is the
// absolute file offset of a data chunk: the receiving daemon verifies
// contiguity with it, so an injected drop or torn chunk surfaces as a
// detectable gap instead of silently corrupting the ring stream.
type remoteChunk struct {
	reqID  int64
	off    int64
	err    bool
	openOK bool
	size   int64
}

// chunkMsg is what lands on a pending request's queue.
type chunkMsg struct {
	payload data.Slice
	off     int64
	err     bool
	openOK  bool
	size    int64
}

// hostServer is the per-host daemon endpoint serving requests from peers:
// the remote half of Figures 7/8 (the "vRead-daemon" bar on the datanode
// side).
type hostServer struct {
	mgr    *Manager
	host   *cluster.Host
	thread *cpusched.Thread
	reqs   *sim.Queue[remoteReq]
	hr     *hostReader
}

func newHostServer(mgr *Manager, host *cluster.Host) *hostServer {
	thread := host.CPU.NewThread("vread-server:"+host.Name, DaemonEntity(host.Name))
	s := &hostServer{
		mgr:    mgr,
		host:   host,
		thread: thread,
		reqs:   sim.NewQueue[remoteReq](mgr.env, 0),
		hr:     newHostReader(mgr.cfg, host, thread),
	}
	mgr.env.Go("vread-server:"+host.Name, s.loop)
	return s
}

func (s *hostServer) loop(p *sim.Proc) {
	for {
		req, ok := s.reqs.Get(p)
		if !ok {
			return
		}
		if req.open {
			s.handleOpen(p, req)
		} else {
			s.handleRead(p, req)
		}
	}
}

// handleOpen checks the local mount table and replies with a header chunk.
func (s *hostServer) handleOpen(p *sim.Proc, req remoteReq) {
	sp := req.tr.Begin(trace.LayerRemote, "serve-open")
	s.thread.RunT(p, s.mgr.cfg.OpenCycles, metrics.TagOthers, req.tr)
	reply := remoteChunk{reqID: req.reqID}
	if m := s.mgr.mount(s.host.Name, req.dn); m != nil {
		if e, ok := m.Lookup(req.path); ok {
			reply.openOK = true
			reply.size = e.Size
		}
	}
	req.tr.EndSpan(sp, 0)
	s.send(p, req.tr, req.fromHost, data.Slice{C: data.Zero(0)}, reply)
}

// handleRead reads the requested window from the local mount (host page
// cache + disk) and actively pushes chunks to the requesting host — the
// paper's "active model for RDMA data exchange on the datanode side".
func (s *hostServer) handleRead(p *sim.Proc, req remoteReq) {
	m := s.mgr.mount(s.host.Name, req.dn)
	if m == nil {
		s.send(p, req.tr, req.fromHost, data.Slice{C: data.Zero(0)}, remoteChunk{reqID: req.reqID, err: true})
		return
	}
	e, ok := m.Lookup(req.path)
	if !ok {
		s.send(p, req.tr, req.fromHost, data.Slice{C: data.Zero(0)}, remoteChunk{reqID: req.reqID, err: true})
		return
	}
	sp := req.tr.Begin(trace.LayerRemote, "serve-read")
	dnVM := s.mgr.cl.VM(req.dn)
	obj := dnVM.HostCacheObject(e.Node.Ino())
	key := raKey{req.dn, req.path}
	cfg := s.mgr.cfg
	for off := req.off; off < req.off+req.n; {
		chunk := req.off + req.n - off
		if chunk > cfg.RemoteChunkBytes {
			chunk = cfg.RemoteChunkBytes
		}
		s.hr.read(p, req.tr, obj, key, e.Size, off, chunk)
		payload, err := m.ReadAt(req.path, off, chunk)
		if err == nil && cfg.Faults.Should(faults.DiskReadError) {
			req.tr.Event(trace.LayerRemote, "fault:disk-error", 0)
			err = fsim.ErrStale
		}
		if err != nil {
			req.tr.EndSpan(sp, off-req.off)
			s.send(p, req.tr, req.fromHost, data.Slice{C: data.Zero(0)}, remoteChunk{reqID: req.reqID, err: true})
			return
		}
		if chunk > 1 && cfg.Faults.Should(faults.DiskReadTorn) {
			// Torn read: the chunk arrives short. The receiving daemon's
			// contiguity check catches the gap at the next chunk (or its
			// window timeout, if this was the last) and re-requests from
			// the end of the delivered prefix.
			req.tr.Event(trace.LayerRemote, "fault:disk-torn", 0)
			payload = payload.Sub(0, chunk/2)
		}
		s.send(p, req.tr, req.fromHost, payload, remoteChunk{reqID: req.reqID, off: off})
		off += chunk
	}
	req.tr.EndSpan(sp, req.n)
}

// send pushes one frame to a peer host over the configured transport.
func (s *hostServer) send(p *sim.Proc, tr *trace.Trace, dstHost string, payload data.Slice, meta remoteChunk) {
	hdr := s.mgr.chunkHdrs.get()
	*hdr = meta
	s.mgr.sendFrame(p, s.host.Name, s.thread, dstHost, netsim.Frame{Payload: payload, Meta: hdr, Trace: tr})
}

// pool is a free list of frame headers. A header travels as a frame's Meta
// pointer, so the frame boxes nothing; onFrame copies it out and puts it
// back. A header whose frame the network drops is left to the collector.
type pool[T any] struct{ free []*T }

func (pl *pool[T]) get() *T {
	n := len(pl.free)
	if n == 0 {
		return new(T)
	}
	x := pl.free[n-1]
	pl.free = pl.free[:n-1]
	return x
}

func (pl *pool[T]) put(x *T) {
	var zero T
	*x = zero
	pl.free = append(pl.free, x) //lint:allow hotalloc(pool growth amortized: one slot per header in flight at once)
}

// ---------------------------------------------------------------------------
// Manager-side transport plumbing.

// sendFrame transmits a request or chunk frame daemon-to-daemon over the
// pair's current transport (RDMA, or TCP while a downgrade is active).
func (m *Manager) sendFrame(p *sim.Proc, srcHost string, srcThread *cpusched.Thread, dstHost string, fr netsim.Frame) {
	switch m.transportTo(srcHost, dstHost) {
	case TransportRDMA:
		qp := m.qpFor(srcHost, dstHost)
		c := m.sent.Get()
		qp.PostFrom(srcHost, fr, c.Fire)
		m.sent.Wait(p, c)
	case TransportTCP:
		// User-level TCP: per-segment syscall + copy cost on the sending
		// daemon, then the host kernel path.
		srcThread.RunT(p, m.cfg.TCPSegCycles, metrics.TagVReadNet, fr.Trace)
		nic := m.fabric().NIC(srcHost)
		c := m.sent.Get()
		nic.SendToHost(dstHost, VReadPort, fr, c.Fire)
		m.sent.Wait(p, c)
	default:
		panic(fmt.Sprintf("core: unknown transport %v", m.cfg.Transport))
	}
}

// noteRemoteFailureT is noteRemoteFailure plus the once-per-transition trace
// mark the acceptance test asserts on.
func (m *Manager) noteRemoteFailureT(tr *trace.Trace, a, b string) {
	if m.noteRemoteFailure(a, b) {
		tr.Event(trace.LayerDaemon, "transport-downgrade", 0)
	}
}

// qpFor lazily creates the QP connecting two hosts, charging RDMA CPU to
// each side's daemon-server thread.
func (m *Manager) qpFor(a, b string) *netsim.QP {
	key := qpKey(a, b)
	if qp, ok := m.qps[key]; ok {
		return qp
	}
	sa, sb := m.servers[a], m.servers[b]
	if sa == nil || sb == nil {
		panic(fmt.Sprintf("core: missing vRead server on %s or %s", a, b))
	}
	qp := m.fabric().NewQP(
		a, sa.thread, func(fr netsim.Frame) { m.onFrame(a, fr) },
		b, sb.thread, func(fr netsim.Frame) { m.onFrame(b, fr) },
	)
	m.qps[key] = qp
	return qp
}

// hostPair is an unordered pair of hosts, stored in order: the key of a
// pair's QP and of its transport downgrade.
type hostPair struct{ lo, hi string }

func qpKey(a, b string) hostPair {
	if b < a {
		a, b = b, a
	}
	return hostPair{a, b}
}

// onFrame demultiplexes an arriving daemon-to-daemon frame on a host.
//
//lint:hotpath
func (m *Manager) onFrame(host string, fr netsim.Frame) {
	switch hdr := fr.Meta.(type) {
	case *remoteReq:
		req := *hdr
		m.reqHdrs.put(hdr)
		srv := m.servers[host]
		if srv == nil || !srv.reqs.TryPut(req) {
			panic(fmt.Sprintf("core: no vRead server on %s", host))
		}
	case *remoteChunk:
		meta := *hdr
		m.chunkHdrs.put(hdr)
		pend := m.pending[meta.reqID]
		if pend == nil {
			return // request abandoned (timed out and retired) — drop
		}
		pend.TryPut(chunkMsg{payload: fr.Payload, off: meta.off, err: meta.err, openOK: meta.openOK, size: meta.size})
	default:
		panic(fmt.Sprintf("core: unexpected frame meta %T", fr.Meta))
	}
}

// onTCPFrame is the host-port handler for the TCP transport: the receiving
// daemon pays its per-segment user-level cost, then demux.
func (m *Manager) onTCPFrame(host string) netsim.HostHandler {
	return func(fr netsim.Frame) {
		srv := m.servers[host]
		srv.thread.PostT(m.cfg.TCPSegCycles, metrics.TagVReadNet, fr.Trace, func() {
			m.onFrame(host, fr)
		})
	}
}

// remoteOpen sends an open probe to the peer host and waits for the reply.
func (m *Manager) remoteOpen(p *sim.Proc, d *Daemon, dnHost string, req ringReq) openResult {
	m.nextReq++
	id := m.nextReq
	pend := sim.NewQueue[chunkMsg](m.env, 0)
	m.pending[id] = pend
	defer delete(m.pending, id)
	hdr := m.reqHdrs.get()
	*hdr = remoteReq{reqID: id, fromHost: d.host.Name, dn: req.dn, path: req.path, open: true, tr: req.tr}
	m.sendFrame(p, d.host.Name, d.thread, dnHost, netsim.Frame{
		Payload: data.NewSlice(data.Zero(64)),
		Meta:    hdr,
		Trace:   req.tr,
	})
	msg, ok := pend.GetTimeout(p, m.cfg.OpenTimeout)
	if !ok {
		// No reply at all: treat the transport as suspect so subsequent
		// reads to that host start on the TCP fallback.
		m.noteRemoteFailureT(req.tr, d.host.Name, dnHost)
		return openResult{}
	}
	if msg.err {
		return openResult{}
	}
	return openResult{ok: msg.openOK, size: msg.size}
}

// remoteRead sends a read request for one window and returns the queue its
// chunks will arrive on. The caller must call finishRemote when done.
func (m *Manager) remoteRead(p *sim.Proc, tr *trace.Trace, d *Daemon, dnHost, dn, path string, off, n int64) *sim.Queue[chunkMsg] {
	m.nextReq++
	id := m.nextReq
	pend := m.pendingQueue()
	m.pending[id] = pend
	m.pendingIDs[pend] = id
	hdr := m.reqHdrs.get()
	*hdr = remoteReq{reqID: id, fromHost: d.host.Name, dn: dn, path: path, off: off, n: n, tr: tr}
	m.sendFrame(p, d.host.Name, d.thread, dnHost, netsim.Frame{
		Payload: data.NewSlice(data.Zero(64)),
		Meta:    hdr,
		Trace:   tr,
	})
	return pend
}

// pendingQueue takes a retired chunk queue for reuse, or makes one.
func (m *Manager) pendingQueue() *sim.Queue[chunkMsg] {
	n := len(m.pendFree)
	if n == 0 {
		return sim.NewQueue[chunkMsg](m.env, 0)
	}
	q := m.pendFree[n-1]
	m.pendFree = m.pendFree[:n-1]
	return q
}

// finishRemote retires a pending remote read. No frame reaches the queue
// once its id is gone from pending, so it is emptied and kept for reuse.
//
//lint:hotpath
func (m *Manager) finishRemote(q *sim.Queue[chunkMsg]) {
	id, ok := m.pendingIDs[q]
	if !ok {
		return
	}
	delete(m.pending, id)
	delete(m.pendingIDs, q)
	for {
		if _, ok := q.TryGet(); !ok {
			break
		}
	}
	m.pendFree = append(m.pendFree, q) //lint:allow hotalloc(pool growth amortized: one slot per remote read in flight at once)
}
