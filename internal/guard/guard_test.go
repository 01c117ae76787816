package guard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"determinacy/internal/guard/faultinject"
	"determinacy/internal/obs"
)

func TestCheckInterruptNilAndZero(t *testing.T) {
	if err := CheckInterrupt(nil); err != nil {
		t.Fatalf("CheckInterrupt(nil) = %v, want nil", err)
	}
	if err := CheckInterrupt(context.Background()); err != nil {
		t.Fatalf("CheckInterrupt(background) = %v, want nil", err)
	}
}

func TestCheckInterruptCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := CheckInterrupt(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want wrapped context.Canceled", err)
	}
	if ContextReason(err) != DegradeCancel {
		t.Fatalf("ContextReason(%v) = %q, want cancel", err, ContextReason(err))
	}
}

func TestCheckInterruptCancelCause(t *testing.T) {
	cause := errors.New("operator hit ^C")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	err := CheckInterrupt(ctx)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cancellation cause preserved", err)
	}
}

func TestCheckInterruptDeadline(t *testing.T) {
	past, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := CheckInterrupt(past)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want ErrDeadline wrapping DeadlineExceeded", err)
	}
	if ContextReason(err) != DegradeDeadline {
		t.Fatalf("ContextReason = %q, want deadline", ContextReason(err))
	}
	future, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if err := CheckInterrupt(future); err != nil {
		t.Fatalf("future deadline: err = %v, want nil", err)
	}
}

func TestCheckInterruptInjectedExpiry(t *testing.T) {
	p := &faultinject.Plan{Action: faultinject.Expire, After: 1}
	faultinject.Arm(p)
	defer faultinject.Disarm()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if err := CheckInterrupt(ctx); err != nil {
		t.Fatalf("unfired expire plan tripped the deadline: %v", err)
	}
	faultinject.Hit(faultinject.SiteCoreStep)
	err := CheckInterrupt(ctx)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("fired expire plan: err = %v, want ErrDeadline", err)
	}
}

func TestBoundaryRecovers(t *testing.T) {
	run := func() (err error) {
		defer Boundary(&err, "exec", func() (int, string) { return 42, "7:3" })
		panic("kaboom")
	}
	err := run()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RunError", err, err)
	}
	if re.Phase != "exec" || re.Instr != 42 || re.Pos != "7:3" {
		t.Fatalf("RunError = %+v, want phase exec at 7:3 (instr 42)", re)
	}
	if len(re.Stack) == 0 {
		t.Fatal("RunError.Stack empty, want captured stack")
	}
	if !strings.Contains(re.Error(), "panic in exec phase at 7:3 (instr 42): kaboom") {
		t.Fatalf("Error() = %q", re.Error())
	}
}

func TestBoundaryNoPanicLeavesErrorAlone(t *testing.T) {
	sentinel := errors.New("ordinary failure")
	run := func() (err error) {
		defer Boundary(&err, "exec", nil)
		return sentinel
	}
	if err := run(); err != sentinel {
		t.Fatalf("err = %v, want the function's own return", err)
	}
}

func TestBoundaryNestedKeepsInnermostPhase(t *testing.T) {
	inner := func() (err error) {
		defer Boundary(&err, "solve", nil)
		panic(faultinject.Injected{Site: "pointsto.solve", Hit: 9})
	}
	outer := func() (err error) {
		defer Boundary(&err, "exec", nil)
		if ierr := inner(); ierr != nil {
			panic(ierr.(*RunError))
		}
		return nil
	}
	err := outer()
	var re *RunError
	if !errors.As(err, &re) || re.Phase != "solve" {
		t.Fatalf("err = %v, want inner solve-phase RunError to pass through", err)
	}
	var inj faultinject.Injected
	if !errors.As(err, &inj) || inj.Site != "pointsto.solve" {
		t.Fatalf("err = %v does not unwrap to the injected fault", err)
	}
}

func TestRunErrorUnwrapNonError(t *testing.T) {
	re := New("interp", "plain string panic")
	if re.Unwrap() != nil {
		t.Fatalf("Unwrap of non-error panic = %v, want nil", re.Unwrap())
	}
}

func TestGuardCounters(t *testing.T) {
	m := obs.NewMetrics()
	CountRecovered(m, "exec")
	CountRecovered(m, "exec")
	CountRecovered(m, "batch")
	CountDegraded(m, DegradeDeadline)
	CountDegraded(m, DegradeNone) // ignored
	if got := m.Counter(MetricRecovered).Value(); got != 3 {
		t.Fatalf("recovered total = %d, want 3", got)
	}
	if got := m.Counter(fmt.Sprintf(MetricRecovered+`{phase=%q}`, "exec")).Value(); got != 2 {
		t.Fatalf("recovered{exec} = %d, want 2", got)
	}
	if got := m.Counter(MetricDegraded).Value(); got != 1 {
		t.Fatalf("degraded total = %d, want 1", got)
	}
	// nil registries must be safe no-ops.
	CountRecovered(nil, "exec")
	CountDegraded(nil, DegradeCancel)
}
