// Fixture: spans derived from a spill_file outliving (or outrunning) their
// owner — one finding per function. The rule is scoped to src/, so tests
// feed this text under a src/ path.
struct byte_span {
  unsigned char* p;
  unsigned long n;
  byte_span first(unsigned long k);
  unsigned char& operator[](unsigned long i);
};
struct spill_file {
  explicit spill_file(unsigned long bytes);
  byte_span as_span();
  void reset();
};
namespace std {
template <class T>
T&& move(T& v);
}
void consume(spill_file f);

byte_span escapes_via_return(unsigned long bytes) {
  spill_file f(bytes);
  byte_span sp = f.as_span();
  return sp;  // flagged: the mapping dies with f
}

byte_span view_of_view_escapes(unsigned long bytes) {
  spill_file f(bytes);
  byte_span sp = f.as_span();
  byte_span head = sp.first(16);
  return head;  // flagged: still backed by f
}

unsigned long use_after_reset(unsigned long bytes) {
  spill_file f(bytes);
  byte_span sp = f.as_span();
  f.reset();
  return sp.n;  // flagged: the mapping went away with the reset
}

unsigned long use_after_block_exit(unsigned long bytes) {
  byte_span sp{0, 0};
  {
    spill_file f(bytes);
    sp = f.as_span();
  }
  return sp.n;  // flagged: f was destroyed at the block's close
}

unsigned long use_after_move(unsigned long bytes) {
  spill_file f(bytes);
  byte_span sp = f.as_span();
  consume(std::move(f));
  return sp.n;  // flagged: ownership (and the mapping) moved away
}

unsigned long use_after_reset_past_a_branch(unsigned long bytes, bool aliased,
                                            byte_span out) {
  spill_file spill(bytes);
  byte_span part{0, 0};
  if (aliased) {
    part = spill.as_span().first(bytes);
  } else {
    part = out;  // rebinding in one branch only: the taint stays
  }
  spill.reset();
  part[0] = 1;  // flagged: the if branch may have left part on spill
  return 0;
}
