// Command use is the fixture's one caller of package a.
package main

import (
	"fmt"
	"os"

	"ssmobile/testdata/surface/internal/a"
)

func main() {
	n := len(os.Args)
	q := a.New(a.Config{Width: n, Ways: 8, Lanes: 2})
	r := a.New(a.Config{Width: n, Ways: 8})
	fmt.Println(q.Size(), r.Size(), a.Total([]a.Shape{a.Square{Side: 3}}), a.Square{})
}
