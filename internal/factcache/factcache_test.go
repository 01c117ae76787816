package factcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
)

// testSrc exercises functions (one body hash each), a loop (occurrence
// sequences), indeterminacy (Math.random) and a NaN value (the NumS wire
// path).
const testSrc = `
function add(a, b) { return a + b; }
function mul(a, b) { return a * b; }
var t = 0;
for (var i = 0; i < 5; i = i + 1) { t = add(t, mul(i, 2)); }
var r = Math.random();
var q = add(r, 1);
var nan = 0 / 0;
console.log(t);
console.log(nan);
`

type coldRun struct {
	mod    *ir.Module
	store  *facts.Store
	output []byte
	stats  core.Stats
}

// runCold executes testSrc-style source under the instrumented semantics,
// as a caching layer would.
func runCold(t *testing.T, src string, seed uint64) *coldRun {
	t.Helper()
	mod, err := ir.Compile("cache.js", src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	store := facts.NewStore()
	a := core.New(mod, store, core.Options{Seed: seed, Out: &out})
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	return &coldRun{mod: mod, store: store, output: out.Bytes(), stats: a.Stats()}
}

// factFuncs counts the functions that recorded at least one fact.
func factFuncs(r *coldRun) int {
	seen := map[int]bool{}
	for _, f := range r.store.All() {
		seen[r.mod.FuncOf(f.Instr).Index] = true
	}
	return len(seen)
}

// renderStore flattens a store — recording order AND sorted order — so two
// stores compare byte-for-byte.
func renderStore(s *facts.Store) string {
	var b strings.Builder
	for _, f := range s.All() {
		fmt.Fprintf(&b, "%d|%s|%d det=%v hits=%d val=%v\n", f.Instr, f.Ctx.Key(), f.Seq, f.Det, f.Hits, f.Val)
	}
	b.WriteString("#sorted\n")
	for _, f := range s.Sorted() {
		fmt.Fprintf(&b, "%d|%s|%d det=%v hits=%d val=%v\n", f.Instr, f.Ctx.Key(), f.Seq, f.Det, f.Hits, f.Val)
	}
	return b.String()
}

func mustOpen(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func storeRun(t *testing.T, c *Cache, key Key, r *coldRun) {
	t.Helper()
	if err := c.Store(key, r.mod, r.store, r.output, r.stats, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripByteIdentity(t *testing.T) {
	dir := t.TempDir()
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})

	c := mustOpen(t, dir)
	if _, ok := c.Lookup(key); ok {
		t.Fatal("lookup hit on an empty cache")
	}
	storeRun(t, c, key, cold)

	// A fresh Cache on the same dir simulates a new process: everything
	// must come back from disk.
	warm := mustOpen(t, dir)
	hit, ok := warm.Lookup(key)
	if !ok {
		t.Fatal("warm lookup missed")
	}
	if got, want := renderStore(hit.Store), renderStore(cold.store); got != want {
		t.Fatalf("warm store differs from cold store:\n--- warm\n%s\n--- cold\n%s", got, want)
	}
	if !bytes.Equal(hit.Output, cold.output) {
		t.Fatalf("output differs: %q vs %q", hit.Output, cold.output)
	}
	if got, want := fmt.Sprintf("%+v", hit.Stats), fmt.Sprintf("%+v", cold.stats); got != want {
		t.Fatalf("stats differ:\n%s\nvs\n%s", got, want)
	}
	st := warm.Stats()
	if want := int64(factFuncs(cold)); st.Hits != 1 || st.Joins != want {
		t.Fatalf("stats = %+v, want 1 hit and %d joins", st, want)
	}
}

// TestOneRecordPerRun pins the on-disk layout: a stored run is its record
// at runs/<key id> plus the diff anchor's head naming it, and a hit joins
// one body per function that recorded a fact — a function whose body
// another function shares still counts once for itself.
func TestOneRecordPerRun(t *testing.T) {
	twins := `
var f = function (a) { return a + 1; };
var g = function (a) { return a + 1; };
console.log(f(1) + g(2));
`
	for name, src := range map[string]string{"testSrc": testSrc, "twins": twins} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cold := runCold(t, src, 7)
			key := KeyFor("cache.js", src, Sig{Seed: 7})
			c := mustOpen(t, dir)
			storeRun(t, c, key, cold)
			want := []string{
				filepath.Join(dir, "heads", key.head),
				filepath.Join(dir, "runs", key.ID()),
			}
			if files := dbFiles(t, dir); fmt.Sprint(files) != fmt.Sprint(want) {
				t.Fatalf("stored run left %v, want %v (the run record and its anchor head)", files, want)
			}

			warm := mustOpen(t, dir)
			hit, ok := warm.Lookup(key)
			if !ok {
				t.Fatal("fresh-handle lookup missed")
			}
			if got, want := renderStore(hit.Store), renderStore(cold.store); got != want {
				t.Fatalf("warm store differs from cold store:\n--- warm\n%s\n--- cold\n%s", got, want)
			}
			if got, want := warm.Stats().Joins, int64(factFuncs(cold)); got != want {
				t.Fatalf("joins = %d, want %d (functions that recorded facts)", got, want)
			}
		})
	}

	// The twins' record keeps both copies of the shared body hash.
	cold := runCold(t, twins, 7)
	key := KeyFor("cache.js", twins, Sig{Seed: 7})
	c := mustOpen(t, t.TempDir())
	storeRun(t, c, key, cold)
	rec, ok := c.load(key)
	if !ok {
		t.Fatal("record not loadable after store")
	}
	if len(rec.Bodies) != 3 || rec.Bodies[1] != rec.Bodies[2] || rec.Bodies[0] == rec.Bodies[1] {
		t.Fatalf("bodies = %v, want [top, h, h] with f and g sharing h", rec.Bodies)
	}
}

func TestKeySeparatesOptionsAndSource(t *testing.T) {
	base := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	for name, k := range map[string]Key{
		"seed":   KeyFor("cache.js", testSrc, Sig{Seed: 8}),
		"source": KeyFor("cache.js", testSrc+"\n", Sig{Seed: 7}),
		"file":   KeyFor("other.js", testSrc, Sig{Seed: 7}),
		"input":  KeyFor("cache.js", testSrc, Sig{Seed: 7, Inputs: []InputSig{{Name: "x", Kind: 3, NumBits: 1}}}),
	} {
		if k.ID() == base.ID() {
			t.Errorf("%s variation did not change the key", name)
		}
	}
	// Input order must NOT change the key (canonicalized by name).
	a := KeyFor("cache.js", testSrc, Sig{Inputs: []InputSig{{Name: "a"}, {Name: "b", Kind: 1}}})
	b := KeyFor("cache.js", testSrc, Sig{Inputs: []InputSig{{Name: "b", Kind: 1}, {Name: "a"}}})
	if a.ID() != b.ID() {
		t.Error("input order changed the key")
	}
	// Same (file, options) with different sources share the diff anchor.
	edited := KeyFor("cache.js", testSrc+"\n", Sig{Seed: 7})
	if base.head != edited.head {
		t.Error("source edit changed the diff anchor head")
	}
}

// dbFiles lists every record file under the cache dir (runs and heads).
func dbFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("cache dir holds no files")
	}
	return files
}

// TestCorruptionRecovery damages every DB file in several ways; each time,
// a fresh cache must miss cleanly (no panic, no wrong facts), and one
// re-store must fully repair the entry.
func TestCorruptionRecovery(t *testing.T) {
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})

	damage := map[string]func([]byte) []byte{
		"truncate-header":  func(b []byte) []byte { return b[:headerSize/2] },
		"truncate-payload": func(b []byte) []byte { return b[:len(b)-1] },
		"flip-payload": func(b []byte) []byte {
			nb := append([]byte(nil), b...)
			nb[headerSize+(len(nb)-headerSize)/2] ^= 0x40
			return nb
		},
		"bad-magic": func(b []byte) []byte {
			nb := append([]byte(nil), b...)
			copy(nb, "NOPE")
			return nb
		},
		"future-version": func(b []byte) []byte {
			nb := append([]byte(nil), b...)
			binary.LittleEndian.PutUint16(nb[4:], Version+1)
			return nb
		},
		"empty": func([]byte) []byte { return nil },
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := mustOpen(t, dir)
			storeRun(t, c, key, cold)
			for _, path := range dbFiles(t, dir) {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// Fresh process: must fall back to a miss, possibly over a few
			// lookups as broken records are cleared, and must never serve
			// damaged facts.
			fresh := mustOpen(t, dir)
			if hit, ok := fresh.Lookup(key); ok {
				if got, want := renderStore(hit.Store), renderStore(cold.store); got != want {
					t.Fatalf("served wrong facts from damaged db")
				}
				t.Fatalf("lookup hit on a fully damaged db")
			}
			if fresh.Stats().Invalidations == 0 {
				t.Fatal("no invalidation recorded for damaged db")
			}
			// One re-store repairs everything, even with a damaged head
			// still sitting at its anchor.
			storeRun(t, fresh, key, cold)
			again := mustOpen(t, dir)
			hit, ok := again.Lookup(key)
			if !ok {
				t.Fatal("lookup missed after repair")
			}
			if got, want := renderStore(hit.Store), renderStore(cold.store); got != want {
				t.Fatalf("repaired store differs:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

func TestPartialObjectDamage(t *testing.T) {
	// Damage ONE object file at a time (leaving the rest intact): every
	// single-file corruption must degrade to a clean miss.
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	dir := t.TempDir()
	c := mustOpen(t, dir)
	storeRun(t, c, key, cold)
	files := dbFiles(t, dir)
	for i, path := range files {
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), orig...)
		bad[len(bad)/2] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		// The invariant is "never wrong facts": a file off the lookup path
		// (the diff-anchor head) may still hit, but then the result must be
		// byte-identical to the cold run.
		fresh := mustOpen(t, dir)
		if hit, ok := fresh.Lookup(key); ok {
			if got, want := renderStore(hit.Store), renderStore(cold.store); got != want {
				t.Fatalf("file %d (%s): served wrong facts despite damage", i, filepath.Base(path))
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		// Heads removed during invalidation stay gone until a re-store;
		// repair and continue.
		storeRun(t, mustOpen(t, dir), key, cold)
	}
}

func TestDiff(t *testing.T) {
	// Editing the tail of the program leaves add and mul unchanged: Diff
	// finds the previous record through the head anchor and reports them
	// unchanged, and the edited top level changed.
	edited := strings.Replace(testSrc, "console.log(nan);", "console.log(nan + 0);", 1)
	if edited == testSrc {
		t.Fatal("edit did not apply")
	}
	coldA := runCold(t, testSrc, 7)
	coldB := runCold(t, edited, 7)
	keyA := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	keyB := KeyFor("cache.js", edited, Sig{Seed: 7})
	if keyA.ID() == keyB.ID() {
		t.Fatal("edit did not change the full key")
	}

	dir := t.TempDir()
	c := mustOpen(t, dir)
	if _, ok := c.Diff(keyA, coldA.mod); ok {
		t.Fatal("diff found a record in an empty cache")
	}
	storeRun(t, c, keyA, coldA)

	rep, ok := c.Diff(keyB, coldB.mod)
	if !ok {
		t.Fatal("diff found no previous record via the head anchor")
	}
	// add and mul are untouched; the top level changed.
	if rep.Unchanged == 0 || rep.Changed == 0 {
		t.Fatalf("diff = %+v, want both unchanged and changed functions", rep)
	}
	if rep.Total != len(coldB.mod.Funcs()) {
		t.Fatalf("diff total = %d, want %d", rep.Total, len(coldB.mod.Funcs()))
	}

	storeRun(t, c, keyB, coldB)
	// Both versions stay independently servable.
	for _, k := range []Key{keyA, keyB} {
		if _, ok := mustOpen(t, dir).Lookup(k); !ok {
			t.Fatalf("lookup missed for key %s", k.ID()[:8])
		}
	}
}

// TestDBFrameValidation pins the record read/write helpers — a kind
// mismatch, a checksum mismatch and a foreign format version are each
// rejected — and the key check that replaces content addressing: a valid
// run record copied under another key's name reads as a miss, and Diff
// does not compare against it.
func TestDBFrameValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec")
	payload := []byte(`{"hello":"world"}`)
	if err := writeRecord(path, KindRun, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readRecord(path, KindRun)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read: %q, %v", got, err)
	}
	if _, err := readRecord(path, KindHead); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("kind mismatch: %v, want ErrCorrupt", err)
	}
	if _, err := readRecord(filepath.Join(dir, "absent"), KindRun); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing record: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		damage func([]byte)
		want   error
	}{
		"crc":     {func(b []byte) { b[len(b)-2] ^= 0x01 }, ErrCorrupt},
		"version": {func(b []byte) { binary.LittleEndian.PutUint16(b[4:], Version+1) }, ErrVersion},
	} {
		bad := append([]byte(nil), b...)
		c.damage(bad)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readRecord(path, KindRun); !errors.Is(err, c.want) {
			t.Errorf("%s damage: %v, want %v", name, err, c.want)
		}
	}

	// A record under the wrong name: its frame and schema validate, but it
	// carries the other key's id.
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	other := KeyFor("cache.js", testSrc, Sig{Seed: 8})
	cdir := t.TempDir()
	storeRun(t, mustOpen(t, cdir), key, cold)
	rec, err := os.ReadFile(filepath.Join(cdir, "runs", key.ID()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cdir, "runs", other.ID()), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, cdir)
	if _, ok := c.Lookup(other); ok {
		t.Fatal("a record copied under another key's name served")
	}
	if st := c.Stats(); st.Misses != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 invalidation", st)
	}
	if _, ok := c.Lookup(key); !ok {
		t.Fatal("the record under its own name stopped serving")
	}
	// Diff applies the same check to the run its anchor's head names.
	if err := os.WriteFile(filepath.Join(cdir, "runs", other.ID()), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeRecord(filepath.Join(cdir, "heads", key.head), KindHead, []byte(other.ID())); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Diff(key, cold.mod); ok {
		t.Fatal("Diff compared against a record under another key's name")
	}
}

func TestStoreSkipsOversizedOutput(t *testing.T) {
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	c := mustOpen(t, t.TempDir())
	big := make([]byte, MaxOutputBytes+1)
	if err := c.Store(key, cold.mod, cold.store, big, cold.stats, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(key); ok {
		t.Fatal("oversized-output run was cached")
	}
	if c.Stats().Skips == 0 {
		t.Fatal("skip not recorded")
	}
}
