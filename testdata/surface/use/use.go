// Command use is the fixture's one caller of package a.
package main

import (
	"fmt"

	"ssmobile/testdata/surface/internal/a"
)

func main() {
	q := a.New(a.Config{Width: 2})
	fmt.Println(q.Size(), a.Total([]a.Shape{a.Square{Side: 3}}), a.Square{})
}
