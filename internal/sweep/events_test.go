package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestWriterSinkMatchesLegacyFormat pins the JSONL byte format of
// NewWriterSink (cmd/paperrepro -events): one marshalled Event per line.
func TestWriterSinkMatchesLegacyFormat(t *testing.T) {
	var buf bytes.Buffer
	sink := NewWriterSink(&buf)
	evs := []Event{
		{Event: "start", Job: 0, Key: "k0", Experiment: "fig6-1", Seed: 1, Scale: 1},
		{Event: "done", Job: 0, Key: "k0", Experiment: "fig6-1", Seed: 1, Scale: 1, WallMS: 1.5},
		{Event: "sweep", Jobs: 1, Executed: 1},
	}
	for _, ev := range evs {
		sink.Emit(ev)
	}
	var want bytes.Buffer
	for _, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(data, '\n'))
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("writer sink bytes differ from legacy format:\n got %q\nwant %q", buf.Bytes(), want.Bytes())
	}
}

// TestNilWriterSinkIsNilInterface: the CLIs pass NewWriterSink(w)
// straight into Options.Sink with w nil when -events is unset; that must
// be a nil EventSink the engine skips, not a nil pointer it calls.
func TestNilWriterSinkIsNilInterface(t *testing.T) {
	if sink := NewWriterSink(nil); sink != nil {
		t.Fatalf("NewWriterSink(nil) = %#v, want a nil EventSink", sink)
	}
	if _, err := New(Options{Workers: 1, Runner: fakeRunner, Sink: NewWriterSink(nil)}).
		Run(context.Background(), fakeSpecs([]uint64{1})); err != nil {
		t.Fatal(err)
	}
}

// teeSink hands each event to every sink in order.
type teeSink []EventSink

func (t teeSink) Emit(ev Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// TestEngineEventsAndSinkAgree runs one sweep with both a JSONL writer
// sink and a Hub attached: the hub must buffer exactly the events the
// JSONL stream carries, in the same order.
func TestEngineEventsAndSinkAgree(t *testing.T) {
	var buf bytes.Buffer
	hub := NewHub()
	specs := fakeSpecs([]uint64{1, 2})
	if _, err := New(Options{Workers: 1, Runner: fakeRunner, Sink: teeSink{NewWriterSink(&buf), hub}}).
		Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	hub.Close()
	var fromWriter []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		fromWriter = append(fromWriter, ev)
	}
	fromHub := hub.Snapshot()
	if len(fromHub) != len(fromWriter) {
		t.Fatalf("hub saw %d events, writer saw %d", len(fromHub), len(fromWriter))
	}
	for i := range fromHub {
		if fromHub[i] != fromWriter[i] {
			t.Fatalf("event %d differs: hub %+v writer %+v", i, fromHub[i], fromWriter[i])
		}
	}
}

// TestHubReplayAndLive checks the subscriber contract: a subscription
// created after some events replays them all, then follows live events,
// and drains cleanly at Close.
func TestHubReplayAndLive(t *testing.T) {
	hub := NewHub()
	for i := 0; i < 3; i++ {
		hub.Emit(Event{Event: "start", Job: i})
	}
	sub := hub.Subscribe()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		ev, ok := sub.Next(ctx)
		if !ok || ev.Job != i {
			t.Fatalf("replay event %d: got %+v ok=%v", i, ev, ok)
		}
	}
	// Live phase: the emitter runs concurrently with the blocked reader.
	go func() {
		for i := 3; i < 6; i++ {
			hub.Emit(Event{Event: "done", Job: i})
		}
		hub.Close()
	}()
	for i := 3; i < 6; i++ {
		ev, ok := sub.Next(ctx)
		if !ok || ev.Job != i {
			t.Fatalf("live event %d: got %+v ok=%v", i, ev, ok)
		}
	}
	if _, ok := sub.Next(ctx); ok {
		t.Fatal("subscription did not report closed after drain")
	}
}

// TestHubManySubscribersRace fans a concurrent emitter out to several
// concurrent subscribers — the -race pass is the real assertion; each
// subscriber must also see every event exactly once, in order.
func TestHubManySubscribersRace(t *testing.T) {
	hub := NewHub()
	const events, readers = 200, 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := hub.Subscribe()
			for i := 0; i < events; i++ {
				ev, ok := sub.Next(context.Background())
				if !ok || ev.Job != i {
					errs <- fmt.Errorf("got %+v ok=%v, want job %d", ev, ok, i)
					return
				}
			}
			if _, ok := sub.Next(context.Background()); ok {
				errs <- fmt.Errorf("subscription still open after close")
			}
		}()
	}
	for i := 0; i < events; i++ {
		hub.Emit(Event{Event: "start", Job: i})
	}
	hub.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSubscriptionNextHonorsContext ensures a blocked Next wakes up and
// returns ok=false when its context is cancelled, without the hub
// closing.
func TestSubscriptionNextHonorsContext(t *testing.T) {
	hub := NewHub()
	sub := hub.Subscribe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := sub.Next(ctx)
		done <- ok
	}()
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned an event from an empty hub")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not wake on context cancellation")
	}
}
