package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	var ran [n]int32
	ForEach(n, func(i int) interface{} {
		atomic.AddInt32(&ran[i], 1)
		return i * i
	}, func(i int, r interface{}) {
		if r.(int) != i*i {
			t.Errorf("job %d: result %v, want %d", i, r, i*i)
		}
	})
	for i, c := range ran {
		if c != 1 {
			t.Errorf("job %d ran %d times", i, c)
		}
	}
}

func TestForEachCollectsInOrder(t *testing.T) {
	var order []int
	ForEach(50, func(i int) interface{} { return nil },
		func(i int, _ interface{}) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("collect order[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestForEachNilCollect(t *testing.T) {
	var count int32
	ForEach(10, func(i int) interface{} {
		atomic.AddInt32(&count, 1)
		return nil
	}, nil)
	if count != 10 {
		t.Fatalf("ran %d jobs, want 10", count)
	}
}

func TestForEachSingleWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var sum int
	ForEach(20, func(i int) interface{} { return i },
		func(_ int, r interface{}) { sum += r.(int) })
	if sum != 190 {
		t.Fatalf("sum = %d, want 190", sum)
	}
}

func TestRun(t *testing.T) {
	var ran [33]int32
	Run(len(ran), func(i int) { atomic.AddInt32(&ran[i], 1) })
	for i, c := range ran {
		if c != 1 {
			t.Errorf("job %d ran %d times", i, c)
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	ForEach(0, func(i int) interface{} {
		t.Fatal("run called for n=0")
		return nil
	}, nil)
}
