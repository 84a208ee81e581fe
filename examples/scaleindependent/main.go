// Scale-independent query processing (the Section 1.1 motivation, after
// Armbrust et al.): with declared degree constraints, the polymatroid bound
// on a per-user query is a constant independent of the database size, and
// PANDA's work tracks the bound, not the data.
//
// Query: answers(u, f, m) ← User(u), Follows(u, f), Posts(f, m)
// with deg(Follows: f|u) ≤ 50 and deg(Posts: m|f) ≤ 20: at most
// 50·20 = 1000 answers per user, no matter how large the site grows.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"panda"
)

func main() {
	const maxFollows, maxPosts = 50, 20
	s := panda.Schema{
		NumVars:  3,
		VarNames: []string{"u", "f", "m"},
		Atoms: []panda.Atom{
			{Name: "User", Vars: panda.Vars(0)},
			{Name: "Follows", Vars: panda.Vars(0, 1)},
			{Name: "Posts", Vars: panda.Vars(1, 2)},
		},
	}
	q := &panda.Query{Schema: s, Free: panda.AllVars(3)}
	rng := rand.New(rand.NewSource(1))
	db := panda.Open()
	defer db.Close()

	fmt.Println("users in DB   |Follows|   |Posts|   bound   |answers(u)|   max intermediate")
	for _, users := range []int{100, 1000, 10000} {
		ins := panda.NewInstance(&s)
		// One fixed user of interest.
		ins.Relations[0].Insert([]panda.Value{0})
		for u := 0; u < users; u++ {
			nf := 1 + rng.Intn(maxFollows)
			for k := 0; k < nf; k++ {
				ins.Relations[1].Insert([]panda.Value{panda.Value(u), panda.Value(rng.Intn(users))})
			}
		}
		for f := 0; f < users; f++ {
			np := 1 + rng.Intn(maxPosts)
			for k := 0; k < np; k++ {
				ins.Relations[2].Insert([]panda.Value{panda.Value(f), panda.Value(rng.Intn(1 << 20))})
			}
		}
		dcs := []panda.Constraint{
			panda.Cardinality(panda.Vars(0), 1, 0), // the user of interest
			panda.Degree(panda.Vars(0), panda.Vars(0, 1), maxFollows, 1),
			panda.Degree(panda.Vars(1), panda.Vars(1, 2), maxPosts, 2),
		}
		if err := ins.Check(&s, dcs); err != nil {
			log.Fatal(err)
		}
		res, err := db.Eval(q, ins, dcs, panda.WithMode(panda.ModeFull))
		if err != nil {
			log.Fatal(err)
		}
		b, _ := res.Bound.Float64()
		fmt.Printf("%-13d %-11d %-9d 2^%-5.1f %-14d %d\n",
			users, ins.Relations[1].Size(), ins.Relations[2].Size(),
			b, res.Size(), res.Stats.MaxIntermediate)
		if math.Pow(2, b) > maxFollows*maxPosts*1.01 {
			log.Fatalf("bound exceeded the scale-independent budget of %d", maxFollows*maxPosts)
		}
	}
	fmt.Printf("\nThe bound stays ≤ %d·%d = %d while the database grows 100×.\n",
		maxFollows, maxPosts, maxFollows*maxPosts)
}
