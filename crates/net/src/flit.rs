//! Flits: the 18-bit (half-word) units moved by channels each cycle.

use jm_isa::node::Coord;
use jm_isa::word::Word;
use jm_isa::TraceId;

/// A flit in flight.
///
/// Physically a flit is half a word (channels carry 0.5 words/cycle). For
/// simulation convenience every flit carries the full routing destination;
/// the *second* flit of each payload word carries the word itself, so the
/// ejection port reassembles words by accepting `payload().is_some()`
/// flits. Route-word flits carry no payload — the route word is consumed
/// by the network.
///
/// The struct is deliberately packed to 32 bytes: channel arenas hold
/// `routers × 14 buffers × depth` of these (a 16×16×16 mesh has 4096
/// routers), and every boundary crossing copies one through an edge
/// mailbox, so flit size is arena footprint *and* parallel-engine
/// bandwidth. Head/tail/payload-presence share one flag byte, the trace
/// id is stored in 32 bits (dense per-run message ordinals; checked on
/// construction), and the virtual network is *not* stored — every path
/// that handles a flit already knows its vnet from the buffer it sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Destination coordinates (from the message's route word).
    pub dest: Coord,
    /// Bit-packed `FLAG_*` bits.
    flags: u8,
    /// Lifecycle-trace ordinal (`0` = untraced), widened to [`TraceId`]
    /// on read.
    trace: u32,
    /// The word completed by this flit ([`Word::NIL`] unless
    /// `FLAG_PAYLOAD` is set).
    word: Word,
    /// Cycle at which the message's first flit was injected, for latency
    /// accounting.
    pub inject_cycle: u64,
    /// Earliest cycle at which this flit may leave the buffer it sits in
    /// (prevents multi-hop moves within one cycle).
    pub ready_cycle: u64,
}

/// First flit of its message (triggers output-port allocation in routers).
const FLAG_HEAD: u8 = 1 << 0;
/// Last flit of its message (releases the path).
const FLAG_TAIL: u8 = 1 << 1;
/// The flit completes a payload word (`word` is meaningful).
const FLAG_PAYLOAD: u8 = 1 << 2;

impl Flit {
    /// The all-zero filler flit arenas use for untouched slots.
    pub(crate) fn nil() -> Flit {
        Flit {
            dest: Coord::default(),
            flags: 0,
            trace: 0,
            word: Word::NIL,
            inject_cycle: 0,
            ready_cycle: 0,
        }
    }

    /// Whether this is the first flit of its message.
    #[inline]
    pub fn head(&self) -> bool {
        self.flags & FLAG_HEAD != 0
    }

    /// Whether this is the last flit of its message.
    #[inline]
    pub fn tail(&self) -> bool {
        self.flags & FLAG_TAIL != 0
    }

    /// The word completed by this flit, if it is a word's second half
    /// (and the word is payload rather than routing).
    #[inline]
    pub fn payload(&self) -> Option<Word> {
        (self.flags & FLAG_PAYLOAD != 0).then_some(self.word)
    }

    /// Lifecycle-trace id of the message this flit belongs to
    /// ([`TraceId::NONE`] when tracing is disabled).
    #[inline]
    pub fn trace(&self) -> TraceId {
        TraceId(u64::from(self.trace))
    }

    /// Expands one message word into its two flits.
    ///
    /// `route_word` marks the message's first word, the route word: its
    /// first flit is the head and it carries no payload (it is stripped at
    /// ejection). `tail_word` marks the message's final word.
    pub fn pair_for_word(
        dest: Coord,
        word: Word,
        route_word: bool,
        tail_word: bool,
        inject_cycle: u64,
        ready_cycle: u64,
        trace: TraceId,
    ) -> [Flit; 2] {
        debug_assert!(
            u32::try_from(trace.0).is_ok(),
            "trace ordinal exceeds the flit's 32-bit field"
        );
        let trace = trace.0 as u32;
        let first = Flit {
            dest,
            flags: if route_word { FLAG_HEAD } else { 0 },
            trace,
            word: Word::NIL,
            inject_cycle,
            ready_cycle,
        };
        let mut flags = if tail_word { FLAG_TAIL } else { 0 };
        let word = if route_word {
            Word::NIL
        } else {
            flags |= FLAG_PAYLOAD;
            word
        };
        let second = Flit {
            dest,
            flags,
            trace,
            word,
            inject_cycle,
            ready_cycle,
        };
        [first, second]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_stays_packed() {
        assert!(
            std::mem::size_of::<Flit>() <= 32,
            "Flit grew past 32 bytes: {}",
            std::mem::size_of::<Flit>()
        );
    }

    #[test]
    fn route_words_carry_no_payload() {
        let dest = Coord::new(1, 2, 3);
        let [a, b] = Flit::pair_for_word(dest, Word::int(5), true, false, 0, 0, TraceId::NONE);
        assert!(a.head() && !b.head());
        assert_eq!(a.payload(), None);
        assert_eq!(b.payload(), None);
    }

    #[test]
    fn payload_words_complete_on_second_flit() {
        let dest = Coord::new(0, 0, 0);
        let [a, b] = Flit::pair_for_word(dest, Word::int(9), false, true, 7, 9, TraceId(3));
        assert_eq!(a.payload(), None);
        assert_eq!(b.payload(), Some(Word::int(9)));
        assert!(!a.tail() && b.tail());
        assert_eq!(b.inject_cycle, 7);
        assert_eq!(b.ready_cycle, 9);
        assert_eq!(a.trace(), TraceId(3));
        assert_eq!(b.trace(), TraceId(3));
    }
}
