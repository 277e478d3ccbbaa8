package procstat

import "testing"

func TestReadSelf(t *testing.T) {
	x := 0
	for i := 0; i < 1e7; i++ {
		x += i
	}
	_ = x
	s, err := Read("self")
	if err != nil {
		t.Fatal(err)
	}
	if s.RunNs == 0 || s.HWMKiB == 0 || s.SysRead == 0 {
		t.Fatalf("empty counters: %+v", s)
	}
	if RunNs("self") < s.RunNs {
		t.Fatal("CPU time went backwards")
	}
	if _, err := Read("0"); err == nil {
		t.Fatal("read a process that cannot exist")
	}
}
