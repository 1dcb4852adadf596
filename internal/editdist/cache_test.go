package editdist

import (
	"math/rand"
	"sync"
	"testing"

	"mse/internal/dom"
)

// randTree builds a random element tree of at most depth levels using the
// given tag alphabet.  Structures repeat often, which is exactly the regime
// the cache is built for.
func randTree(r *rand.Rand, depth int) *dom.Node {
	tags := []string{"div", "span", "a", "td", "tr"}
	n := &dom.Node{Type: dom.ElementNode, Tag: tags[r.Intn(len(tags))]}
	if depth > 0 {
		for i := r.Intn(4); i > 0; i-- {
			n.AppendChild(randTree(r, depth-1))
		}
	}
	return n
}

// withCacheState runs fn and restores the cache's capacity and contents
// afterwards, so tests can resize and flush the global cache freely.
func withCacheState(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		SetCacheCapacity(DefaultCacheCapacity)
		ResetCache()
	}()
	fn()
}

// exactDist is the reference TreeDist: the uncached Zhang-Shasha distance
// normalized by the larger tree's size.
func exactDist(a, b *dom.Node) float64 {
	maxSize := a.Size()
	if s := b.Size(); s > maxSize {
		maxSize = s
	}
	return float64(TreeEditDistance(a, b)) / float64(maxSize)
}

// TestTreeDistCachedMatchesUncached is the differential test at the
// distance level: for random tree pairs the memoized path must return
// exactly the value of the original dynamic program.
func TestTreeDistCachedMatchesUncached(t *testing.T) {
	withCacheState(t, func() {
		r := rand.New(rand.NewSource(42))
		trees := make([]*dom.Node, 40)
		for i := range trees {
			trees[i] = randTree(r, 3)
		}
		type pairResult struct{ cached, direct float64 }
		results := make([]pairResult, 0, len(trees)*len(trees))
		ResetCache()
		for _, a := range trees {
			for _, b := range trees {
				results = append(results, pairResult{cached: TreeDist(a, b)})
			}
		}
		// Query everything twice so resident-hit answers are covered too.
		k := 0
		for _, a := range trees {
			for _, b := range trees {
				if got := TreeDist(a, b); got != results[k].cached {
					t.Fatalf("second cached query differs: %v vs %v", got, results[k].cached)
				}
				k++
			}
		}
		k = 0
		for _, a := range trees {
			for _, b := range trees {
				results[k].direct = exactDist(a, b)
				k++
			}
		}
		for i, pr := range results {
			if pr.cached != pr.direct {
				t.Fatalf("pair %d: cached %v != direct %v", i, pr.cached, pr.direct)
			}
		}
	})
}

func TestWithinTreeDistMatchesExact(t *testing.T) {
	withCacheState(t, func() {
		ResetCache()
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			a, b := randTree(r, 3), randTree(r, 3)
			eps := float64(r.Intn(11)) / 10
			want := exactDist(a, b) <= eps
			if got := WithinTreeDist(a, b, eps); got != want {
				t.Fatalf("WithinTreeDist(%d, eps=%v) = %v, exact says %v", i, eps, got, want)
			}
		}
	})
}

func TestCacheSymmetric(t *testing.T) {
	withCacheState(t, func() {
		ResetCache()
		r := rand.New(rand.NewSource(3))
		a, b := randTree(r, 3), randTree(r, 3)
		d1 := TreeDist(a, b)
		s1 := Stats()
		d2 := TreeDist(b, a)
		s2 := Stats()
		if d1 != d2 {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
		if a.Fingerprint() != b.Fingerprint() && s2.Misses != s1.Misses {
			t.Fatalf("reversed query missed the cache: %+v -> %+v", s1, s2)
		}
	})
}

func TestCacheEvictionBound(t *testing.T) {
	withCacheState(t, func() {
		SetCacheCapacity(cacheShardCount) // one entry per shard
		ResetCache()
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 200; i++ {
			TreeDist(randTree(r, 3), randTree(r, 3))
		}
		s := Stats()
		if s.Entries > cacheShardCount {
			t.Fatalf("cache grew past its bound: %d entries > %d", s.Entries, cacheShardCount)
		}
		if s.Misses > 0 && s.Entries == 0 {
			t.Fatal("cache retained nothing despite misses")
		}
	})
}

func TestCacheStatsAccounting(t *testing.T) {
	withCacheState(t, func() {
		ResetCache()
		a := randTree(rand.New(rand.NewSource(5)), 3)
		b := a.Clone()
		TreeDist(a, b) // identical fingerprints
		s := Stats()
		if s.Identical != 1 || s.Lookups != 1 {
			t.Fatalf("identical-pair stats wrong: %+v", s)
		}
		r := rand.New(rand.NewSource(6))
		var c *dom.Node
		for {
			c = randTree(r, 3)
			if c.Fingerprint() != a.Fingerprint() {
				break
			}
		}
		TreeDist(a, c)
		TreeDist(a, c)
		s = Stats()
		if s.Misses != 1 || s.Hits != 1 {
			t.Fatalf("miss/hit accounting wrong: %+v", s)
		}
	})
}

// TestCacheConcurrent hammers the cache from many goroutines; run under
// -race it verifies the locking discipline, and the equality check verifies
// that racing computes agree.
func TestCacheConcurrent(t *testing.T) {
	withCacheState(t, func() {
		SetCacheCapacity(256) // small: forces concurrent evictions too
		ResetCache()
		r := rand.New(rand.NewSource(13))
		trees := make([]*dom.Node, 24)
		for i := range trees {
			trees[i] = randTree(r, 3)
		}
		want := make(map[[2]int]float64)
		for i := range trees {
			for j := range trees {
				want[[2]int{i, j}] = exactDist(trees[i], trees[j])
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				lr := rand.New(rand.NewSource(seed))
				for k := 0; k < 500; k++ {
					i, j := lr.Intn(len(trees)), lr.Intn(len(trees))
					if got := TreeDist(trees[i], trees[j]); got != want[[2]int{i, j}] {
						select {
						case errs <- "concurrent TreeDist diverged from the exact distance":
						default:
						}
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatal(msg)
		}
	})
}
