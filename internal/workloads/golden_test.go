package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"testing"

	"bingo/internal/trace"
)

// The golden digests pin every generator's record stream across commits:
// a change that alters one simulated byte of any Table II trace fails
// here before it reaches the experiment tables. Regenerate them (only for
// a deliberate, recorded re-baseline) with
//
//	go test ./internal/workloads -run TestTraceGolden -golden-print
var goldenPrint = flag.Bool("golden-print", false, "print the trace golden digests instead of checking them")

const (
	goldenCores   = 4
	goldenRecords = 100_000 // per core
	// zeusLapRecords covers more than one full lap of the Zeus chain
	// (2^20 chain steps, four records per step) so the wrap is pinned.
	zeusLapRecords = 4<<20 + 100_000
)

// goldenDigests maps "<spec>/seed<n>" to the SHA-256 of the first
// goldenRecords records of each of goldenCores cores, in core order.
var goldenDigests = map[string]string{
	"DataServing/seed1": "facd469fbfb48135f339668fb23b5f04e46d198761fb8f3916d1e3fa4627ea2d",
	"DataServing/seed2": "e7d91a247647b8e2aeede2e81c8d3fcd0378e3aa6504ef6849e446126c394418",
	"SATSolver/seed1":   "6d94975e8bf1c285aba21adb65458744615fc553f96e17b22ffa5086ebe86034",
	"SATSolver/seed2":   "f4009b71a4380ecc3c4f5a2f171d353ffe09bc1c8afe7a970e49a0a384148be9",
	"Streaming/seed1":   "ff77bbd11880f4a905c59f1f95e65a89e23ac4928d8d28a3d8df85355a641a9d",
	"Streaming/seed2":   "67370e6405d6fa766e25dd0180e9dfe905bad40ade94a339d0b153eec360e534",
	"Zeus/seed1":        "2c8a9d261c8044c244f35cdc1f4ef864b0616bd5a648a484745bf09e123585dc",
	"Zeus/seed2":        "675de36a379df61b5f1064dccb14589f2fb8e062c5f9bfeab92a505c6afbc54a",
	"em3d/seed1":        "cc323e36577abf9d6ae77af323418685e773866cf9bc6770fa8328b76e6f005a",
	"em3d/seed2":        "cc323e36577abf9d6ae77af323418685e773866cf9bc6770fa8328b76e6f005a",
	"Mix1/seed1":        "6fc14fb83396959ae0fa46dc9813259d4e95c766a13a2c4d47da509e721c72ac",
	"Mix1/seed2":        "31be6080800dfe63adc789dabf0e664547124b0c0213fce0ea0856aca5f043d9",
	"Mix2/seed1":        "b41644e5c2382b68f62d7b80ed145908595d5405482446a7454312266a25a8b7",
	"Mix2/seed2":        "1a5f776f9070707d8d77238a8dae12621d76881cdd78f9b519a7ccb67bff7c1c",
	"Mix3/seed1":        "b4cd027c906d6be923677058cc2d1b6fa0d197c9bf45171fd856a3b85f28edeb",
	"Mix3/seed2":        "4fbb2f467b5cce699a948c665c8685b9f951539c201c74d47388388de6d2dafb",
	"Mix4/seed1":        "08255f65fa9631464d2d04443cc3b53ba2e3de27a3d468ba3c168073d08ec5b0",
	"Mix4/seed2":        "d452a5d2a160b2be39a8ed3f1e1f503c787b6150ede938407cd6732a53f70af1",
	"Mix5/seed1":        "f8d4c639395989852b31673e24bff1b0970b3cb0e217c2f2e5ec813233e4f466",
	"Mix5/seed2":        "f02bf432f6c2ead2e9623eedd6724590e5bfa560eb1f6d93ecb3a4aaf5460b0e",
}

// zeusLapDigest is the SHA-256 of the first zeusLapRecords records of
// Zeus core 0 at seed 1.
const zeusLapDigest = "b91e05a50bb788c63c708e8eed4a00747ad32a3f99585d1825719526b7dc424d"

// hashRecords feeds n records of src into h in a fixed little-endian
// layout (PC, Addr, Kind, NonMem, Dep).
func hashRecords(t testing.TB, h hash.Hash, src trace.Source, n int) {
	t.Helper()
	var b [22]byte
	for i := 0; i < n; i++ {
		r, ok := src.Next()
		if !ok {
			t.Fatalf("source ended after %d records", i)
		}
		binary.LittleEndian.PutUint64(b[0:], uint64(r.PC))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.Addr))
		b[16] = byte(r.Kind)
		binary.LittleEndian.PutUint32(b[17:], r.NonMem)
		b[21] = 0
		if r.Dep {
			b[21] = 1
		}
		h.Write(b[:])
	}
}

func TestTraceGolden(t *testing.T) {
	for _, spec := range All() {
		for _, seed := range []int64{1, 2} {
			key := fmt.Sprintf("%s/seed%d", spec.Name, seed)
			h := sha256.New()
			for _, src := range spec.Sources(goldenCores, seed) {
				hashRecords(t, h, src, goldenRecords)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if *goldenPrint {
				fmt.Printf("\t%q: %q,\n", key, got)
				continue
			}
			if want := goldenDigests[key]; got != want {
				t.Errorf("%s: trace digest %s, want %s", key, got, want)
			}
		}
	}

	spec, _ := ByName("Zeus")
	h := sha256.New()
	hashRecords(t, h, spec.Sources(1, 1)[0], zeusLapRecords)
	got := hex.EncodeToString(h.Sum(nil))
	if *goldenPrint {
		fmt.Printf("zeusLapDigest = %q\n", got)
		return
	}
	if got != zeusLapDigest {
		t.Errorf("Zeus core 0 lap: trace digest %s, want %s", got, zeusLapDigest)
	}
}
