// endpoint is the per-process networking runtime shared by the
// coordinator and the workers: the connection per peer process, the
// active attempt per qid, and the demux that routes stream frames into
// attempt queues. The demux never blocks — queue depth is bounded by
// the senders' credit windows — so a connection's reader loop is
// always able to drain control traffic even when a consumer is slow.
package net

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

type endpoint struct {
	proc   int // my proc id; 0 is the coordinator
	window int

	mu    sync.Mutex
	peers map[int]*conn
	// peerSet is closed and replaced whenever a peer registers — the
	// broadcast awaitPeers waits on.
	peerSet chan struct{}
	atts    map[uint64]*attempt
	tombs   map[uint64]bool // finished/aborted qids: late frames dropped
}

func newEndpoint(proc, window int) *endpoint {
	if window <= 0 {
		window = defaultWindow
	}
	return &endpoint{
		proc:    proc,
		window:  window,
		peers:   make(map[int]*conn),
		peerSet: make(chan struct{}),
		atts:    make(map[uint64]*attempt),
		tombs:   make(map[uint64]bool),
	}
}

func (ep *endpoint) setPeer(proc int, c *conn) {
	ep.mu.Lock()
	ep.peers[proc] = c
	close(ep.peerSet)
	ep.peerSet = make(chan struct{})
	ep.mu.Unlock()
}

// awaitPeers blocks until every proc in procs has registered a
// connection, or fails once timeout passes.
func (ep *endpoint) awaitPeers(procs []int, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ep.mu.Lock()
		missing := -1
		for _, p := range procs {
			if ep.peers[p] == nil {
				missing = p
				break
			}
		}
		changed := ep.peerSet
		ep.mu.Unlock()
		if missing < 0 {
			return nil
		}
		select {
		case <-changed:
		case <-deadline.C:
			return &NetError{Msg: "mesh peer not connected before setup timeout", Peer: missing}
		}
	}
}

func (ep *endpoint) peerConn(proc int) *conn {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	c := ep.peers[proc]
	if c != nil && c.isDead() {
		return nil
	}
	return c
}

// attemptFor returns the attempt runtime for qid, creating a shell on
// first sight (a data frame can outrun the query message on another
// connection). Tombstoned qids return nil: the attempt is over and its
// frames are discarded.
func (ep *endpoint) attemptFor(qid uint64) *attempt {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.tombs[qid] {
		return nil
	}
	at := ep.atts[qid]
	if at == nil {
		at = newAttempt(ep, qid)
		ep.atts[qid] = at
	}
	return at
}

// retire tombstones a qid and fails its attempt (idempotent), so late
// frames and blocked senders resolve.
func (ep *endpoint) retire(qid uint64, err error) {
	ep.mu.Lock()
	ep.tombs[qid] = true
	at := ep.atts[qid]
	delete(ep.atts, qid)
	ep.mu.Unlock()
	if at != nil {
		if err == nil {
			err = fmt.Errorf("net: attempt %d retired", qid)
		}
		at.fail(err)
	}
}

// peerDied fails every active attempt — the session stream is serial,
// so any in-flight query involved the dead peer's replica or its
// traffic and cannot complete.
func (ep *endpoint) peerDied(proc int, cause error) {
	ep.mu.Lock()
	if c := ep.peers[proc]; c != nil && c.isDead() {
		delete(ep.peers, proc)
	}
	atts := make([]*attempt, 0, len(ep.atts))
	for _, at := range ep.atts {
		atts = append(atts, at)
	}
	ep.mu.Unlock()
	err := &NetError{Msg: fmt.Sprintf("peer died: %v", cause), Peer: proc}
	for _, at := range atts {
		at.fail(err)
	}
}

// sendCredit returns window bytes to a remote producer (best effort —
// if the connection is gone the producer's gates are failing anyway).
func (ep *endpoint) sendCredit(proc int, qid uint64, key streamKey, bytes int) {
	c := ep.peerConn(proc)
	if c == nil {
		return
	}
	p := appendStreamHdr(nil, streamHdr{qid: qid, exch: key.exch, src: key.src, dst: key.dst})
	p = binary.AppendUvarint(p, uint64(bytes))
	c.writeFrame(msgCredit, p)
}

// handleStreamFrame demuxes data/eos/credit frames into the owning
// attempt. Unknown (tombstoned) qids are dropped silently.
func (ep *endpoint) handleStreamFrame(from *conn, typ byte, payload []byte) error {
	h, rest, err := decodeStreamHdr(payload)
	if err != nil {
		return err
	}
	switch typ {
	case msgData:
		at := ep.attemptFor(h.qid)
		if at == nil {
			return nil
		}
		return at.deliverData(from.peer, h, rest)
	case msgEOS:
		at := ep.attemptFor(h.qid)
		if at == nil {
			return nil
		}
		at.queueFor(qkey{h.exch, h.dst}).eosFrom(h.src)
		return nil
	case msgCredit:
		n, k := binary.Uvarint(rest)
		if k <= 0 {
			return fmt.Errorf("net: credit frame: bad byte count")
		}
		ep.mu.Lock()
		at := ep.atts[h.qid] // no shell for credits: unknown qid is stale
		ep.mu.Unlock()
		if at != nil {
			at.gateFor(streamKey{h.exch, h.src, h.dst}).grant(int(n))
		}
		return nil
	}
	return fmt.Errorf("net: unexpected stream frame %s", msgName(typ))
}
