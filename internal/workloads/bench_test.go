package workloads

import (
	"testing"

	"bingo/internal/trace"
)

var sourcesSink []trace.Source

// Generator throughput matters because trace generation is inlined into
// the simulation loop.
func BenchmarkGenerators(b *testing.B) {
	for _, spec := range All() {
		b.Run(spec.Name, func(b *testing.B) {
			src := spec.Sources(1, 1)[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := src.Next(); !ok {
					b.Fatal("source ended")
				}
			}
		})
	}
}

// BenchmarkSources measures the set-up cost every cell pays before its
// first record: building a Table I machine's four per-core sources.
func BenchmarkSources(b *testing.B) {
	for _, spec := range All() {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sourcesSink = spec.Sources(4, 1)
			}
		})
	}
}
