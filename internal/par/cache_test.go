package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheOneBuildForConcurrentCallers(t *testing.T) {
	c := NewCache[string, int](4)
	var builds atomic.Int64
	release := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	vals := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], _, errs[i] = c.Get(context.Background(), "k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
		}()
	}
	for c.Stats().Hits+c.Stats().Misses < callers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i := range vals {
		if vals[i] != 42 || errs[i] != nil {
			t.Fatalf("caller %d: %d, %v", i, vals[i], errs[i])
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d callers ran %d builds, want 1", callers, n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Len != 1 {
		t.Fatalf("stats %+v, want 1 miss, %d hits, 1 entry", st, callers-1)
	}
}

func TestCacheFailureReachesEveryJoinerAndIsNotCached(t *testing.T) {
	c := NewCache[string, int](4)
	boom := errors.New("boom")
	release := make(chan struct{})
	var builds atomic.Int64
	failing := func() (int, error) {
		builds.Add(1)
		<-release
		return 0, boom
	}
	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, _, err := c.Get(context.Background(), "k", failing)
			errs <- err
		}()
	}
	for c.Stats().Hits+c.Stats().Misses < callers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; err != boom {
			t.Fatalf("joiner got %v, want the build's error", err)
		}
	}
	if st := c.Stats(); st.Len != 0 {
		t.Fatalf("failed build left %d entries", st.Len)
	}
	v, hit, err := c.Get(context.Background(), "k", func() (int, error) { builds.Add(1); return 7, nil })
	if v != 7 || hit || err != nil {
		t.Fatalf("after the failure: %d, hit %v, %v; want a fresh build", v, hit, err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2", n)
	}
}

func TestCacheCancelledWaiterBuildStillLands(t *testing.T) {
	c := NewCache[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, "k", func() (int, error) {
			close(started)
			<-release
			return 9, nil
		})
		got <- err
	}()
	<-started
	cancel()
	if err := <-got; err != context.Canceled {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(release)
	v, hit, err := c.Get(context.Background(), "k", func() (int, error) {
		t.Error("a second build started")
		return 0, nil
	})
	if v != 9 || !hit || err != nil {
		t.Fatalf("after the waiter left: %d, hit %v, %v; want the landed build", v, hit, err)
	}
}

func TestCacheEvictionSkipsInFlight(t *testing.T) {
	c := NewCache[string, int](1)
	release := make(chan struct{})
	var slowBuilds atomic.Int64
	slow := func() (int, error) {
		slowBuilds.Add(1)
		<-release
		return 1, nil
	}
	done := make(chan struct{})
	go func() {
		c.Get(context.Background(), "slow", slow)
		close(done)
	}()
	for c.Stats().Misses < 1 {
		time.Sleep(time.Millisecond)
	}
	ready := func() (int, error) { return 2, nil }
	if _, _, err := c.Get(context.Background(), "ready", ready); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Len != 2 || st.Evictions != 0 {
		t.Fatalf("stats %+v: the in-flight build was evicted", st)
	}
	// The in-flight entry is still findable: asking again joins it.
	go c.Get(context.Background(), "slow", slow)
	for c.Stats().Hits < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if n := slowBuilds.Load(); n != 1 {
		t.Fatalf("%d builds of the in-flight key, want 1", n)
	}
	// Once both are ready, the next insert evicts the least recently used.
	if _, _, err := c.Get(context.Background(), "third", ready); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Len != 1 || st.Evictions != 2 {
		t.Fatalf("stats %+v, want 1 entry after 2 evictions", st)
	}
}

func TestCachePutNeverShadowsInFlight(t *testing.T) {
	c := NewCache[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	got := make(chan int, 1)
	go func() {
		v, _, _ := c.Get(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
		got <- v
	}()
	<-started
	c.Put("k", 2) // the build in flight wins
	close(release)
	if v := <-got; v != 1 {
		t.Fatalf("waiter got %d, want the build's 1", v)
	}
	if v, hit, _ := c.Get(context.Background(), "k", nil); v != 1 || !hit {
		t.Fatalf("after Put over an in-flight build: %d, hit %v; want 1 from the build", v, hit)
	}
	c.Put("k", 3) // a ready entry is replaced
	if v, _, _ := c.Get(context.Background(), "k", nil); v != 3 {
		t.Fatalf("after Put over a ready entry: %d, want 3", v)
	}
	if st := c.Stats(); st.Len != 1 {
		t.Fatalf("%d entries for one key", st.Len)
	}
}
