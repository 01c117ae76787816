package factcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
)

// testSrc exercises functions (chunk granularity), a loop (occurrence
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
	rec    *Recorder
	output []byte
	stats  core.Stats
}

// runCold executes testSrc-style source under the instrumented semantics
// with the entry recorder attached, as a caching layer would.
func runCold(t *testing.T, src string, seed uint64) *coldRun {
	t.Helper()
	mod, err := ir.Compile("cache.js", src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	store := facts.NewStore()
	rec := NewRecorder()
	a := core.New(mod, store, core.Options{Seed: seed, Out: &out, OnEnterFunc: rec.OnEnter})
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	return &coldRun{mod: mod, store: store, rec: rec, output: out.Bytes(), stats: a.Stats()}
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
	if err := c.Store(key, r.mod, r.store, r.rec, r.output, r.stats, 0); err != nil {
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
		t.Fatalf("stitched store differs from cold store:\n--- warm\n%s\n--- cold\n%s", got, want)
	}
	if !bytes.Equal(hit.Output, cold.output) {
		t.Fatalf("output differs: %q vs %q", hit.Output, cold.output)
	}
	if got, want := fmt.Sprintf("%+v", hit.Stats), fmt.Sprintf("%+v", cold.stats); got != want {
		t.Fatalf("stats differ:\n%s\nvs\n%s", got, want)
	}
	if hit.Chunks == 0 {
		t.Fatal("hit stitched zero chunks")
	}
	st := warm.Stats()
	if st.Hits != 1 || st.Joins != int64(hit.Chunks) {
		t.Fatalf("stats = %+v, want 1 hit and %d joins", st, hit.Chunks)
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

// dbFiles lists every record file under the cache dir (objects and heads).
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
			// One re-store repairs everything, even with damaged object
			// files still sitting at their content addresses.
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

func TestDiffAndChunkDedup(t *testing.T) {
	// Editing the tail of the program must leave the functions' chunks
	// reusable: Diff reports them unchanged and the second Store dedups
	// their chunks. (Chunks carry absolute instruction IDs, so only code at
	// or after the edit point re-encodes — an edit inside mul would shift
	// the loop's call-site IDs and with them add's fact contexts.)
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
		t.Fatal("diff found a manifest in an empty cache")
	}
	storeRun(t, c, keyA, coldA)

	rep, ok := c.Diff(keyB, coldB.mod)
	if !ok {
		t.Fatal("diff found no previous manifest via the head anchor")
	}
	// add and mul are untouched; the top level changed.
	if rep.Unchanged == 0 || rep.Changed == 0 {
		t.Fatalf("diff = %+v, want both unchanged and changed functions", rep)
	}
	if rep.Total != len(coldB.mod.Funcs()) {
		t.Fatalf("diff total = %d, want %d", rep.Total, len(coldB.mod.Funcs()))
	}

	storeRun(t, c, keyB, coldB)
	st := c.Stats()
	if st.ChunksDeduped == 0 {
		t.Fatalf("stats = %+v: unchanged function produced no chunk dedup", st)
	}
	// Both versions stay independently servable.
	for _, k := range []Key{keyA, keyB} {
		if _, ok := mustOpen(t, dir).Lookup(k); !ok {
			t.Fatalf("lookup missed for key %s", k.ID()[:8])
		}
	}
}

func TestEntrySignatureShapesChunkIdentity(t *testing.T) {
	// Same body, different entry determinacy (argument fed by Math.random
	// vs a constant) must produce different chunk objects.
	detSrc := `function f(a) { return a + 1; } console.log(f(2));`
	indetSrc := `function f(a) { return a + 1; } console.log(f(Math.random()));`
	a := runCold(t, detSrc, 1)
	b := runCold(t, indetSrc, 1)
	chunksA, _, err := splitChunks(a.mod, a.store, a.rec)
	if err != nil {
		t.Fatal(err)
	}
	chunksB, _, err := splitChunks(b.mod, b.store, b.rec)
	if err != nil {
		t.Fatal(err)
	}
	sigOf := func(chunks []*chunkPayload, body string) (uint64, bool) {
		for _, c := range chunks {
			if strings.Contains(body, "f") && c.Fn != 0 {
				return c.SigAnd, true
			}
		}
		return 0, false
	}
	sa, oka := sigOf(chunksA, detSrc)
	sb, okb := sigOf(chunksB, indetSrc)
	if !oka || !okb {
		t.Fatal("function chunk not found")
	}
	if sa == sb {
		t.Fatalf("entry signatures identical (%#x) despite determinacy difference", sa)
	}
	// The determinate call must mark argument 0 determinate.
	if sa&1 == 0 {
		t.Fatalf("determinate argument not reflected in signature %#x", sa)
	}
	if sb&1 != 0 {
		t.Fatalf("indeterminate argument marked determinate in signature %#x", sb)
	}
}

func TestDBFrameValidation(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"hello":"world"}`)
	id, created, err := db.PutObject(KindChunk, payload)
	if err != nil || !created {
		t.Fatalf("put: created=%v err=%v", created, err)
	}
	if _, _, err := db.PutObject(KindChunk, payload); err != nil {
		t.Fatal(err)
	} else if _, created, _ := db.PutObject(KindChunk, payload); created {
		t.Fatal("identical payload not deduplicated")
	}
	got, err := db.GetObject(id, KindChunk)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get: %q, %v", got, err)
	}
	// Wrong kind reads as corrupt.
	if _, err := db.GetObject(id, KindManifest); err == nil {
		t.Fatal("kind mismatch not detected")
	}
	// A record stored under the wrong address reads as corrupt even though
	// its frame validates.
	other := ObjectID([]byte("elsewhere"))
	if err := atomicWrite(filepath.Join(dir, "objects", other[:2], other), frame(KindChunk, payload)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetObject(other, KindChunk); err == nil {
		t.Fatal("address mismatch not detected")
	}
	// Heads.
	if err := db.SetHead("k", id); err != nil {
		t.Fatal(err)
	}
	if h, err := db.Head("k"); err != nil || h != id {
		t.Fatalf("head: %q, %v", h, err)
	}
	if _, err := db.Head("absent"); !IsNotExist(err) {
		t.Fatalf("missing head: %v", err)
	}
}

func TestStoreSkipsOversizedOutput(t *testing.T) {
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	c := mustOpen(t, t.TempDir())
	big := make([]byte, MaxOutputBytes+1)
	if err := c.Store(key, cold.mod, cold.store, cold.rec, big, cold.stats, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(key); ok {
		t.Fatal("oversized-output run was cached")
	}
	if c.Stats().Skips == 0 {
		t.Fatal("skip not recorded")
	}
}
