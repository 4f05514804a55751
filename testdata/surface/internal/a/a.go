// Package a is the surface guard's fixture: each declaration is used, or
// not, in a way the guard must tell apart.
package a

// Queue.Size is called by package use.
type Queue struct{ n int }

func (q *Queue) Size() int { return q.n }

// Stack.Size is used nowhere, though a used method shares its name.
type Stack struct{ n int }

func (s *Stack) Size() int { return s.n }

// Shape.Area is called only through the interface, so Square.Area is
// reached without being named; fmt calls Square.String, and
// encoding/json Square.MarshalJSON.
type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func (s Square) String() string { return "square" }

func (s Square) MarshalJSON() ([]byte, error) { return []byte(`"square"`), nil }

func Total(shapes []Shape) int {
	sum := 0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Config.Width is set by package use from a variable and Lanes to 2 by
// one of its calls; Depth is set only by withDefaults, Unit only by New
// defaulting the config it is handed, and Ways to 8 by every call.
type Config struct {
	Width int
	Depth int
	Unit  string
	Ways  int
	Lanes int
}

func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = 4
	}
	return c
}

func New(c Config) *Queue {
	c = c.withDefaults()
	if c.Unit == "" {
		c.Unit = "B"
	}
	return &Queue{n: c.Width * c.Depth * c.Ways * max(c.Lanes, 1)}
}

// helper is used only by a test.
func helper() int { return 1 }
