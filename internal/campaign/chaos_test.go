package campaign

import (
	"reflect"
	"testing"
	"time"
)

func TestParseChaos(t *testing.T) {
	got, err := ParseChaos("wedge:3, panic:5,flaky:7")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{3: ChaosWedge, 5: ChaosPanic, 7: ChaosFlaky}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i, m := range want {
		if got[i] != m {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"wedge", "explode:3", "wedge:x", "wedge:-1", "wedge:3,panic:3"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) should fail", bad)
		}
	}
}

// TestChaosWrapsSource drives every chaos mode through the supervisor:
// the wedge times out, the panic is recovered as a crash, the flake
// succeeds on its retry, and every other unit keeps its real result.
func TestChaosWrapsSource(t *testing.T) {
	src, err := Chaos(intSource(8, nil), "wedge:1,panic:3,flaky:5")
	if err != nil {
		t.Fatal(err)
	}
	run, err := Supervise(Config{Workers: 4, Timeout: 200 * time.Millisecond, Retries: 1}, src)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range run.Outcomes {
		switch i {
		case 1:
			if o.Status != StatusQuarantined || o.FinalFailure() != FailTimeout {
				t.Errorf("wedged unit: %+v", o)
			}
		case 3:
			if o.Status != StatusQuarantined || o.FinalFailure() != FailCrashed {
				t.Errorf("panicking unit: %+v", o)
			}
		case 5:
			if o.Status != StatusOK || len(o.Attempts) != 1 || o.Result != 25 {
				t.Errorf("flaky unit: %+v", o)
			}
		default:
			if o.Status != StatusOK || len(o.Attempts) != 0 || o.Result != i*i {
				t.Errorf("untouched unit %d: %+v", i, o)
			}
		}
	}
}

// TestChaosEmptySpecIsIdentity: without a spec the wrapper hands back
// the very source it was given, so a production campaign runs no chaos
// code at all.
func TestChaosEmptySpecIsIdentity(t *testing.T) {
	in := intSource(3, nil)
	out, err := Chaos(in, "")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(out.Run).Pointer() != reflect.ValueOf(in.Run).Pointer() {
		t.Fatal("an empty spec wrapped the unit function")
	}
	if _, err := Chaos(in, "explode:1"); err == nil {
		t.Fatal("a bad spec must be rejected")
	}
}
