// Command dtsvliw-asm assembles a SPARC V7 source file and prints a
// listing (address, encoding, disassembly) or writes a flat binary image.
//
//	dtsvliw-asm prog.s
//	dtsvliw-asm -run prog.s          # assemble and execute sequentially
package main

import (
	"flag"
	"fmt"
	"os"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

func main() {
	run := flag.Bool("run", false, "execute the program on the sequential interpreter after assembling")
	max := flag.Uint64("max", 100_000_000, "sequential instruction limit with -run")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dtsvliw-asm [-run] file.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	p, err := asm.Assemble(string(src))
	if err != nil {
		fatal(err)
	}

	for _, sec := range p.Sections {
		fmt.Printf("section at %#08x, %d bytes\n", sec.Addr, len(sec.Bytes))
		if sec.Addr != p.TextBase {
			continue
		}
		for i := 0; i+4 <= len(sec.Bytes); i += 4 {
			addr := sec.Addr + uint32(i)
			raw := uint32(sec.Bytes[i])<<24 | uint32(sec.Bytes[i+1])<<16 |
				uint32(sec.Bytes[i+2])<<8 | uint32(sec.Bytes[i+3])
			in, derr := isa.Decode(raw)
			text := "?"
			if derr == nil {
				text = in.Disasm(addr)
			}
			fmt.Printf("  %08x: %08x  %s\n", addr, raw, text)
		}
	}
	fmt.Printf("entry: %#08x\n", p.Entry)

	if !*run {
		return
	}
	st := arch.NewState(16, mem.NewMemory())
	st.LoadProgram(p)
	if err := st.Run(*max); err != nil {
		fatal(err)
	}
	fmt.Printf("halted: exit=%d instret=%d output=%q\n", st.ExitCode, st.Instret, st.Output)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtsvliw-asm:", err)
	os.Exit(1)
}
