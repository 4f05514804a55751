// Command ssmfs is an interactive shell over the solid-state storage
// organisation: a memory-resident file system on simulated battery-backed
// DRAM and flash. It exposes the whole stability story at a prompt —
// write files, crash the OS, kill the power, remount, and watch what
// survives and what it all costs in virtual time and energy.
//
//	go run ./cmd/ssmfs
//	ssmfs> help
//
// -metrics, -trace-out and -trace-jsonl dump, when the shell exits, the
// telemetry of the one observer the card's stack is built with; a remount
// after powerfail and a crash recovery report to it too.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ssmobile/internal/core"
	"ssmobile/internal/fs"
	"ssmobile/internal/obs"
	"ssmobile/internal/prof"
	"ssmobile/internal/sim"
)

const shellHelp = `commands:
  ls [path]            list a directory
  cat PATH             print a file
  write PATH TEXT...   replace a file's contents
  append PATH TEXT...  append to a file
  mkdir PATH           create directories (like mkdir -p)
  rm PATH              remove a file or empty directory
  mv OLD NEW           rename
  ln OLD NEW           hard link
  stat PATH            show file info
  fill PATH KB         write KB kilobytes of patterned data
  sync                 checkpoint metadata + migrate all dirty data to flash
  tick [seconds]       advance virtual time (default 60s) and run daemons
  crash                OS crash: recover from the battery-backed recovery box
  powerfail            power failure: full device-scan remount from flash
  stats                storage-manager (since mount) / flash / energy counters
  time                 show the virtual clock
  help                 this text
  exit                 quit`

type shell struct {
	sys *core.SolidStateSystem
	obs *obs.Observer
	out io.Writer
}

func main() {
	metricsOut := flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
	traceOut := flag.String("trace-out", "", "write the op-span trace in Chrome trace_event format to this file")
	traceJSONL := flag.String("trace-jsonl", "", "write the op-span trace as JSON lines to this file")
	traceCap := flag.Int("trace-cap", 0, "span ring-buffer capacity (0 = default 65536)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmfs:", err)
		os.Exit(1)
	}

	o := obs.New(*traceCap)
	sys, err := core.NewSolidState(core.SolidStateConfig{
		DRAMBytes:  8 << 20,
		FlashBytes: 32 << 20,
		Obs:        o,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmfs:", err)
		os.Exit(1)
	}
	sh := &shell{sys: sys, obs: o, out: os.Stdout}
	sh.session(os.Stdin)
	var exitErr error
	if err := obs.DumpFiles(o, *metricsOut, *traceOut, *traceJSONL); err != nil {
		fmt.Fprintln(os.Stderr, "ssmfs:", err)
		exitErr = err
	}
	if err := prof.WriteHeap(*memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "ssmfs:", err)
		exitErr = err
	}
	stopCPU()
	if exitErr != nil {
		os.Exit(1)
	}
}

// session reads commands from in, one a line, until exit, quit or the
// end of input, prompting before each and reporting any that fails.
func (s *shell) session(in io.Reader) {
	fmt.Fprintf(s.out, "ssmfs: %s — type 'help'\n", s.sys.Name())
	sc := bufio.NewScanner(in)
	for fmt.Fprint(s.out, "ssmfs> "); sc.Scan(); fmt.Fprint(s.out, "ssmfs> ") {
		switch line := strings.TrimSpace(sc.Text()); line {
		case "exit", "quit":
			return
		case "":
		default:
			if err := s.run(line); err != nil {
				fmt.Fprintln(s.out, "error:", err)
			}
		}
	}
	fmt.Fprintln(s.out)
}

func (s *shell) run(line string) error {
	args := strings.Fields(line)
	cmd, args := args[0], args[1:]
	switch cmd {
	case "help":
		fmt.Fprintln(s.out, shellHelp)
	case "ls":
		path := "/"
		if len(args) > 0 {
			path = args[0]
		}
		infos, err := s.sys.FS.ReadDir(path)
		if err != nil {
			return err
		}
		for _, in := range infos {
			fmt.Fprintf(s.out, "%-5s %8d  %s\n", in.Kind, in.Size, in.Name)
		}
	case "cat":
		if len(args) != 1 {
			return fmt.Errorf("usage: cat PATH")
		}
		data, err := s.sys.FS.ReadFile(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%s\n", data)
	case "write", "append":
		if len(args) < 2 {
			return fmt.Errorf("usage: %s PATH TEXT...", cmd)
		}
		text := strings.Join(args[1:], " ")
		if cmd == "write" {
			return s.sys.FS.WriteFile(args[0], []byte(text))
		}
		if !s.sys.FS.Exists(args[0]) {
			if err := s.sys.FS.Create(args[0]); err != nil {
				return err
			}
		}
		_, err := s.sys.FS.Append(args[0], []byte(text+"\n"))
		return err
	case "mkdir":
		if len(args) != 1 {
			return fmt.Errorf("usage: mkdir PATH")
		}
		return s.sys.FS.MkdirAll(args[0])
	case "rm":
		if len(args) != 1 {
			return fmt.Errorf("usage: rm PATH")
		}
		return s.sys.FS.Remove(args[0])
	case "mv":
		if len(args) != 2 {
			return fmt.Errorf("usage: mv OLD NEW")
		}
		return s.sys.FS.Rename(args[0], args[1])
	case "ln":
		if len(args) != 2 {
			return fmt.Errorf("usage: ln OLD NEW")
		}
		return s.sys.FS.Link(args[0], args[1])
	case "stat":
		if len(args) != 1 {
			return fmt.Errorf("usage: stat PATH")
		}
		info, err := s.sys.FS.Stat(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%s: %s, %d bytes, ino %d, nlink %d, mtime %v\n",
			info.Name, info.Kind, info.Size, info.Ino, info.Nlink, info.Mtime)
	case "fill":
		if len(args) != 2 {
			return fmt.Errorf("usage: fill PATH KB")
		}
		kb, err := strconv.Atoi(args[1])
		if err != nil || kb <= 0 {
			return fmt.Errorf("bad size %q", args[1])
		}
		data := make([]byte, kb*1024)
		for i := range data {
			data[i] = byte(i)
		}
		start := s.sys.Clock().Now()
		if err := s.sys.FS.WriteFile(args[0], data); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "wrote %dKB in %v\n", kb, s.sys.Clock().Now().Sub(start))
	case "sync":
		start := s.sys.Clock().Now()
		if err := s.sys.Sync(); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "synced in %v\n", s.sys.Clock().Now().Sub(start))
	case "tick":
		secs := 60
		if len(args) > 0 {
			v, err := strconv.Atoi(args[0])
			if err != nil || v <= 0 {
				return fmt.Errorf("bad seconds %q", args[0])
			}
			secs = v
		}
		s.sys.Clock().Advance(sim.Duration(secs) * sim.Second)
		if err := s.sys.Tick(); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "advanced to %v\n", s.sys.Clock().Now())
	case "crash":
		recovered, err := fs.RecoverAfterCrash(fs.Config{RBoxBytes: 1 << 20, Obs: s.obs}, s.sys.Clock(), s.sys.Storage, s.sys.DRAM)
		if err != nil {
			return err
		}
		s.sys.FS = recovered
		fmt.Fprintf(s.out, "OS crashed and recovered from the recovery box: %d inodes, 0 bytes lost\n",
			recovered.NumInodes())
	case "powerfail":
		before := s.sys.FS.NumInodes()
		s.sys.DRAM.PowerFail()
		remounted, err := s.sys.RemountAfterPowerFailure()
		if err != nil {
			return err
		}
		*s.sys = *remounted
		fmt.Fprintf(s.out, "power failed; device-scan remount recovered %d of %d inodes\n",
			s.sys.FS.NumInodes(), before)
	case "stats":
		ss := s.sys.Storage.Stats()
		fst := s.sys.Flash.Stats()
		fmt.Fprintf(s.out, "storage: since mount, wrote %dKB, flushed %dKB to flash (%.0f%% absorbed), %d cow, %d evictions\n",
			ss.HostBytesWritten>>10, ss.FlushedBytes>>10, ss.Reduction()*100, ss.CopyOnWrites, ss.Evictions)
		fmt.Fprintf(s.out, "flash:   %d programs, %d erases, max erase count %d, wear CoV %.2f\n",
			fst.Programs, fst.Erases, fst.MaxEraseCount, fst.EraseCountCoV)
		fmt.Fprintf(s.out, "DRAM buffer: %d/%d pages in use; flash pages free: %d\n",
			ss.DRAMPagesInUse, ss.DRAMPagesTotal, s.sys.Storage.FlashPagesFree())
		fmt.Fprintf(s.out, "energy:  %v total\n", s.sys.Meter().Total())
	case "time":
		fmt.Fprintf(s.out, "virtual time %v\n", s.sys.Clock().Now())
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	return nil
}
