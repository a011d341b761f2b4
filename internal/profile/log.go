package profile

import (
	"fmt"
	"strings"
	"sync"
)

// Recorder is the VM-side log sink. Optimization passes emit flag-gated
// lines into it; the fuzzer reads back the raw text and greps it with
// the behavior rules, or — on the structured fast path — reads the
// behavior counters the passes maintained directly and never pays for
// line formatting at all. A nil *Recorder is valid and drops everything.
type Recorder struct {
	flags     FlagSet
	lines     []string
	counts    OBV
	countOnly bool
}

// NewRecorder builds a recorder honoring the given flag set.
func NewRecorder(flags FlagSet) *Recorder {
	return &Recorder{flags: flags}
}

// NewCounterRecorder builds a recorder for the structured OBV fast path:
// behavior counters are maintained under the same flag gating as the
// textual log, but no line is ever formatted or stored. Text() returns
// "" and OBV() returns the counts the passes accumulated.
func NewCounterRecorder(flags FlagSet) *Recorder {
	return &Recorder{flags: flags, countOnly: true}
}

// Emitf appends a formatted line if its gating flag is enabled. Lines
// emitted this way match no counting rule (PrintCompilation etc.), so a
// counter-mode recorder drops them without formatting.
func (r *Recorder) Emitf(flag Flag, format string, args ...any) {
	if r == nil || !r.flags.Enabled(flag) || r.countOnly {
		return
	}
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// EmitBehaviorf appends a formatted line whose rendered text matches the
// counting rules for the given behaviors (some lines match two rules).
// The counters advance under the same flag gate as the line itself, so
// counter-mode OBVs agree with ExtractOBV over the textual log.
func (r *Recorder) EmitBehaviorf(flag Flag, behaviors []Behavior, format string, args ...any) {
	if r == nil || !r.flags.Enabled(flag) {
		return
	}
	for _, b := range behaviors {
		r.counts[b]++
	}
	if r.countOnly {
		return
	}
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// AppendLine appends a pre-formatted line with its behavior set. The
// compile cache uses it to replay recorded emissions on a cache hit.
func (r *Recorder) AppendLine(flag Flag, behaviors []Behavior, text string) {
	if r == nil || !r.flags.Enabled(flag) {
		return
	}
	for _, b := range behaviors {
		r.counts[b]++
	}
	if r.countOnly {
		return
	}
	r.lines = append(r.lines, text)
}

// builderPool recycles the string builders Text() joins lines with; a
// campaign calls Text once per execution.
var builderPool = sync.Pool{New: func() any { return new(strings.Builder) }}

// Text returns the accumulated log as one string.
func (r *Recorder) Text() string {
	if r == nil || len(r.lines) == 0 {
		return ""
	}
	n := len(r.lines) - 1
	for _, l := range r.lines {
		n += len(l)
	}
	b := builderPool.Get().(*strings.Builder)
	b.Reset()
	b.Grow(n)
	for i, l := range r.lines {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(l)
	}
	s := b.String()
	builderPool.Put(b)
	return s
}

// Lines returns the raw log lines.
func (r *Recorder) Lines() []string {
	if r == nil {
		return nil
	}
	return r.lines
}

// Len returns the number of recorded lines.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.lines)
}

// OBV returns the behavior counts accumulated through EmitBehaviorf /
// AppendLine. For a recorder whose emissions all went through the
// structured API this equals ExtractOBV(r.Text()); the equivalence is
// pinned by TestStructuredOBVMatchesExtract in the jvm package.
func (r *Recorder) OBV() OBV {
	if r == nil {
		return OBV{}
	}
	return r.counts
}

// Emitter is the narrow interface passes use to write profile data.
type Emitter interface {
	Emitf(flag Flag, format string, args ...any)
}

// BehaviorEmitter extends Emitter with the structured emission API that
// carries the line's rule-match set alongside the text.
type BehaviorEmitter interface {
	Emitter
	EmitBehaviorf(flag Flag, behaviors []Behavior, format string, args ...any)
}

// EmitBehavior routes a rule-counted line through e, using the
// structured API when the emitter supports it and falling back to plain
// Emitf (losing only the counters, which that emitter does not keep).
func EmitBehavior(e Emitter, flag Flag, behaviors []Behavior, format string, args ...any) {
	if e == nil {
		return
	}
	if be, ok := e.(BehaviorEmitter); ok {
		be.EmitBehaviorf(flag, behaviors, format, args...)
		return
	}
	e.Emitf(flag, format, args...)
}

var (
	_ Emitter         = (*Recorder)(nil)
	_ BehaviorEmitter = (*Recorder)(nil)
)
