package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// sessionCounters is the per-session slice of the engine's counters.
type sessionCounters struct {
	StreamsOpened atomic.Int64
	StreamsClosed atomic.Int64
	StreamsReaped atomic.Int64
	Batches       atomic.Int64
	Records       atomic.Int64
	Rejections    atomic.Int64
	BytesRead     atomic.Int64
	BytesWritten  atomic.Int64
	SimIONanos    atomic.Int64
}

// StatsSnapshot is a point-in-time copy of the server's observability
// surface: per-server totals plus one row per live session. It travels in
// FStatsResult frames and renders as a text dump.
type StatsSnapshot struct {
	OpenConns       int64
	OpenStreams     int64
	ConnsAccepted   int64
	ConnsRejected   int64
	StreamsOpened   int64
	StreamsClosed   int64
	StreamsReaped   int64
	BatchesServed   int64
	RecordsServed   int64
	EstimatesServed int64
	RejectedServer  int64
	RejectedConn    int64
	RejectedDrain   int64
	BadFrames       int64
	BytesRead       int64
	BytesWritten    int64
	SimIO           time.Duration
	TransientErrors int64
	DegradedErrors  int64
	MaintJobs       int64
	MaintJobErrors  int64

	// Write-path counters (wire version 2 fields; older servers omit them
	// and the decoder leaves them zero). The first four count requests; the
	// last four are gauges aggregated over the servable views at snapshot
	// time: buffered memview entries, pending tombstones, the deepest delta
	// ladder, and total compactions run since the views opened.
	RecordsIngested   int64
	RecordsDeleted    int64
	FlushesServed     int64
	RejectedWrites    int64
	MemViewRecords    int64
	TombstonesPending int64
	DeltaLevels       int64
	CompactionsRun    int64

	// Durability counters (wire version 3 fields). RejectedThrottle counts
	// write-rate rejections; the WAL gauges aggregate over the servable
	// views: logged bytes, group-commit fsyncs, operations replayed by crash
	// recovery at open, and live log segments.
	RejectedThrottle int64
	WALBytes         int64
	WALFsyncs        int64
	WALReplayed      int64
	WALSegments      int64

	// Fleet counters (wire version 4 fields). A replica fills the first
	// two: per-tenant stream-cap rejections and live tenant accounting
	// buckets. A fleet router answering a stats request fills the rest:
	// hedged pulls issued, hedges whose second replica answered first,
	// streams migrated to a surviving replica, and replicas currently
	// considered live.
	RejectedTenant int64
	TenantsActive  int64
	HedgedReads    int64
	HedgeWins      int64
	Migrations     int64
	ReplicasLive   int64

	Sessions []SessionSnapshot
}

// SessionSnapshot is one live session's counters.
type SessionSnapshot struct {
	ID            uint64
	OpenStreams   int64
	StreamsOpened int64
	StreamsReaped int64
	Batches       int64
	Records       int64
	Rejections    int64
	BytesRead     int64
	BytesWritten  int64
	SimIO         time.Duration
}

// serverFieldCount and sessionFieldCount version the wire encoding: a
// snapshot is encoded as a field count followed by that many int64s, per
// scope, so decoders can stay compatible with older servers that send
// fewer fields. Fields 21..28 are the write-path counters added with the
// ingest frames (wire version 2 of the stats snapshot); fields 29..33 are
// the durability counters added with the write-ahead log (wire version 3);
// fields 34..39 are the fleet counters added with the serving tier (wire
// version 4).
const (
	serverFieldCount  = 40
	sessionFieldCount = 10
)

func (s *StatsSnapshot) serverFields() []int64 {
	return []int64{
		s.OpenConns, s.OpenStreams, s.ConnsAccepted, s.ConnsRejected,
		s.StreamsOpened, s.StreamsClosed, s.StreamsReaped,
		s.BatchesServed, s.RecordsServed, s.EstimatesServed,
		s.RejectedServer, s.RejectedConn, s.RejectedDrain, s.BadFrames,
		s.BytesRead, s.BytesWritten, int64(s.SimIO),
		s.TransientErrors, s.DegradedErrors,
		s.MaintJobs, s.MaintJobErrors,
		s.RecordsIngested, s.RecordsDeleted, s.FlushesServed, s.RejectedWrites,
		s.MemViewRecords, s.TombstonesPending, s.DeltaLevels, s.CompactionsRun,
		s.RejectedThrottle, s.WALBytes, s.WALFsyncs, s.WALReplayed, s.WALSegments,
		s.RejectedTenant, s.TenantsActive,
		s.HedgedReads, s.HedgeWins, s.Migrations, s.ReplicasLive,
	}
}

func (s *StatsSnapshot) setServerFields(f []int64) {
	s.OpenConns, s.OpenStreams, s.ConnsAccepted, s.ConnsRejected = f[0], f[1], f[2], f[3]
	s.StreamsOpened, s.StreamsClosed, s.StreamsReaped = f[4], f[5], f[6]
	s.BatchesServed, s.RecordsServed, s.EstimatesServed = f[7], f[8], f[9]
	s.RejectedServer, s.RejectedConn, s.RejectedDrain, s.BadFrames = f[10], f[11], f[12], f[13]
	s.BytesRead, s.BytesWritten, s.SimIO = f[14], f[15], time.Duration(f[16])
	s.TransientErrors, s.DegradedErrors = f[17], f[18]
	s.MaintJobs, s.MaintJobErrors = f[19], f[20]
	s.RecordsIngested, s.RecordsDeleted, s.FlushesServed, s.RejectedWrites = f[21], f[22], f[23], f[24]
	s.MemViewRecords, s.TombstonesPending, s.DeltaLevels, s.CompactionsRun = f[25], f[26], f[27], f[28]
	s.RejectedThrottle, s.WALBytes, s.WALFsyncs, s.WALReplayed, s.WALSegments = f[29], f[30], f[31], f[32], f[33]
	s.RejectedTenant, s.TenantsActive = f[34], f[35]
	s.HedgedReads, s.HedgeWins, s.Migrations, s.ReplicasLive = f[36], f[37], f[38], f[39]
}

func (s *SessionSnapshot) fields() []int64 {
	return []int64{
		int64(s.ID), s.OpenStreams, s.StreamsOpened, s.StreamsReaped,
		s.Batches, s.Records, s.Rejections,
		s.BytesRead, s.BytesWritten, int64(s.SimIO),
	}
}

func (s *SessionSnapshot) setFields(f []int64) {
	s.ID = uint64(f[0])
	s.OpenStreams, s.StreamsOpened, s.StreamsReaped = f[1], f[2], f[3]
	s.Batches, s.Records, s.Rejections = f[4], f[5], f[6]
	s.BytesRead, s.BytesWritten, s.SimIO = f[7], f[8], time.Duration(f[9])
}

func (s *StatsSnapshot) Encode() []byte {
	b := appendU32(nil, serverFieldCount)
	for _, v := range s.serverFields() {
		b = appendI64(b, v)
	}
	b = appendU32(b, uint32(len(s.Sessions)))
	for i := range s.Sessions {
		b = appendU32(b, sessionFieldCount)
		for _, v := range s.Sessions[i].fields() {
			b = appendI64(b, v)
		}
	}
	return b
}

// consumeFields reads a count-prefixed int64 vector, padding or truncating
// to want fields; the count is validated against the available bytes before
// allocating.
func consumeFields(b []byte, want int) ([]int64, []byte, error) {
	n, b, err := consumeU32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(b)) < uint64(n)*8 {
		return nil, nil, fmt.Errorf("server: stats claims %d fields but only %d bytes follow", n, len(b))
	}
	out := make([]int64, want)
	for i := 0; i < int(n); i++ {
		var v int64
		v, b, _ = consumeI64(b)
		if i < want {
			out[i] = v
		}
	}
	return out, b, nil
}

func decodeStatsSnapshot(b []byte) (*StatsSnapshot, error) {
	var s StatsSnapshot
	f, b, err := consumeFields(b, serverFieldCount)
	if err != nil {
		return nil, err
	}
	s.setServerFields(f)
	n, b, err := consumeU32(b)
	if err != nil {
		return nil, err
	}
	// Each session row costs at least 4 bytes (its field count), so n is
	// bounded by the remaining input before any allocation happens.
	if uint64(len(b)) < uint64(n)*4 {
		return nil, fmt.Errorf("server: stats claims %d sessions but only %d bytes follow", n, len(b))
	}
	s.Sessions = make([]SessionSnapshot, n)
	for i := range s.Sessions {
		var f []int64
		if f, b, err = consumeFields(b, sessionFieldCount); err != nil {
			return nil, err
		}
		s.Sessions[i].setFields(f)
	}
	if len(b) != 0 {
		return nil, errTrailing
	}
	return &s, nil
}

// Dump writes the snapshot as an svinspect-style text report.
func (s *StatsSnapshot) Dump(w io.Writer) {
	fmt.Fprintf(w, "connections:     %d open, %d accepted, %d rejected\n",
		s.OpenConns, s.ConnsAccepted, s.ConnsRejected)
	fmt.Fprintf(w, "streams:         %d open, %d opened, %d closed, %d reaped\n",
		s.OpenStreams, s.StreamsOpened, s.StreamsClosed, s.StreamsReaped)
	fmt.Fprintf(w, "served:          %d records in %d batches, %d estimates\n",
		s.RecordsServed, s.BatchesServed, s.EstimatesServed)
	fmt.Fprintf(w, "rejections:      %d server-cap, %d conn-cap, %d draining\n",
		s.RejectedServer, s.RejectedConn, s.RejectedDrain)
	fmt.Fprintf(w, "wire:            %d bytes in, %d bytes out, %d bad frames\n",
		s.BytesRead, s.BytesWritten, s.BadFrames)
	fmt.Fprintf(w, "simulated I/O:   %v charged by served streams\n", s.SimIO)
	fmt.Fprintf(w, "fault frames:    %d transient, %d degraded\n",
		s.TransientErrors, s.DegradedErrors)
	fmt.Fprintf(w, "maintenance:     %d jobs run, %d failed\n",
		s.MaintJobs, s.MaintJobErrors)
	fmt.Fprintf(w, "ingest:          %d records appended, %d deleted, %d flushes, %d write rejections, %d throttled\n",
		s.RecordsIngested, s.RecordsDeleted, s.FlushesServed, s.RejectedWrites, s.RejectedThrottle)
	fmt.Fprintf(w, "write path:      %d buffered, %d tombstones pending, %d delta levels, %d compactions\n",
		s.MemViewRecords, s.TombstonesPending, s.DeltaLevels, s.CompactionsRun)
	fmt.Fprintf(w, "durability:      %d wal bytes, %d fsyncs, %d ops replayed, %d segments\n",
		s.WALBytes, s.WALFsyncs, s.WALReplayed, s.WALSegments)
	fmt.Fprintf(w, "fleet:           %d tenants, %d tenant-cap rejections, %d hedged (%d wins), %d migrations, %d replicas live\n",
		s.TenantsActive, s.RejectedTenant, s.HedgedReads, s.HedgeWins, s.Migrations, s.ReplicasLive)
	for i := range s.Sessions {
		ss := &s.Sessions[i]
		fmt.Fprintf(w, "session %-6d   %d open, %d opened (%d reaped), %d records / %d batches, %d rej, %dB in / %dB out, sim %v\n",
			ss.ID, ss.OpenStreams, ss.StreamsOpened, ss.StreamsReaped,
			ss.Records, ss.Batches, ss.Rejections, ss.BytesRead, ss.BytesWritten, ss.SimIO)
	}
}
