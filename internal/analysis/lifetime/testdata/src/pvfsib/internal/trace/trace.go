// Package trace is a test stub: the span-plane surface the lifetime
// analyzer recognizes, with no behavior behind it.
package trace

import "pvfsib/internal/sim"

type ReqID uint32

type SpanID uint32

type Ctx uint64

type Stage uint8

const (
	StageOther Stage = iota
	StageReg
	StagePack
	StageWire
	StageQueue
	StageSieve
	StageDisk
)

type Tracer struct{}

func (t *Tracer) Start(now sim.Time, ctx Ctx, node, kind string, st Stage) Span { return Span{t: t} }

func (t *Tracer) NewRequest(now sim.Time, node, kind string) Span { return Span{t: t} }

type Span struct {
	t *Tracer
}

func (s Span) End(now sim.Time) {}

func (s Span) EndErr(now sim.Time, err error) {}

func (s Span) SetBytes(n int64) {}

func (s Span) Annotate(format string, args ...any) {}

func (s Span) Recording() bool { return s.t != nil }

func (s Span) Ctx() Ctx { return 0 }
