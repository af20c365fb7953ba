package main

import (
	"fmt"
	"time"
)

// runSelftest runs every workload briefly on every scheme, then corrupts
// each output model (one tallied increment dropped, one balance shifted,
// one phantom insert, one report sum off by one) and checks again. It
// returns 0 only if every clean check passed and every corrupted check
// fired.
func runSelftest(seed int64, clients int) int {
	bad := 0
	for _, name := range []string{"tatp", "hotspot", "long_reader", "restart"} {
		for _, sc := range schemes {
			res, err := workloads[name].run(params{sc: sc, seed: seed, clients: clients, measure: 300 * time.Millisecond, selftest: true})
			if err != nil {
				fmt.Printf("%s %s: run failed: %v\n", name, sc.tag, err)
				bad++
				continue
			}
			if res.checkErr != nil {
				fmt.Printf("%s %s: clean check failed: %v\n", name, sc.tag, res.checkErr)
				bad++
			}
			if len(res.corrupted) == 0 {
				fmt.Printf("%s %s: no corruption was tried\n", name, sc.tag)
				bad++
			}
			for _, c := range res.corrupted {
				if c.err == nil {
					fmt.Printf("%s %s: %s: check MISSED it\n", name, sc.tag, c.what)
					bad++
					continue
				}
				fmt.Printf("%s %s: %s: check fired: %v\n", name, sc.tag, c.what, c.err)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selftest: %d problems\n", bad)
		return 1
	}
	fmt.Println("selftest: every clean check passed and every corrupted check fired")
	return 0
}
