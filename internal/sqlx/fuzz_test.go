package sqlx_test

import (
	"testing"

	"nexus/internal/harness"
	"nexus/internal/sqlx"
)

// FuzzParse: Parse returns an error or a query, never panics, and the
// canonical rendering of anything it accepts is itself accepted and renders
// back unchanged. The seeds are the workload queries plus one per quoting
// rule of Query.String.
func FuzzParse(f *testing.F) {
	for _, q := range harness.Queries() {
		f.Add(q.SQL)
	}
	f.Add("select t.k, COUNT(*) from t join u on t.k == u.kk where a <> -1.5e3 and b = Europe group by k")
	f.Add("SELECT [a`b], avg(``) FROM `x y` WHERE c = \"it's\" AND d != `'\"` GROUP BY [a`b]")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sqlx.Parse(src)
		if err != nil {
			return
		}
		s := q.String()
		q2, err := sqlx.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q does not re-parse: %v", src, s, err)
		}
		if s2 := q2.String(); s2 != s {
			t.Fatalf("rendering of %q is not a fixed point: %q then %q", src, s, s2)
		}
	})
}
