//! Bytes allocated to take one large frame off a stream: the payload is
//! copied out of the stream once and then moved into its `Bytes`, so a
//! frame costs about one payload's worth of allocation, not two.
//!
//! A counting global allocator in this test binary only (the library is
//! untouched) counts the bytes each thread allocates, so the figures are
//! exact and do not depend on the other tests running beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eca_core::QueryId;
use eca_wire::{read_frame, write_frame, FrameDecoder, Message};

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes of every allocation and
/// reallocation.
struct Counting;

fn bump(bytes: usize) {
    // `try_with`: the counter needs no destructor, but a thread being
    // torn down may still allocate.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// bumping it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the bytes this thread allocated while running it.
fn allocated<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const PAYLOAD: u64 = 256 * 1024;

/// One framed message whose payload is 256 KiB, and the message.
fn big_frame() -> (Vec<u8>, Message) {
    let msg = Message::ReadError {
        id: QueryId(1),
        reason: "x".repeat(PAYLOAD as usize - 13),
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &msg).unwrap();
    assert_eq!(frame.len() as u64, 4 + PAYLOAD);
    (frame, msg)
}

/// About one payload: at least the payload itself, and far below a
/// second copy of it.
fn assert_one_payload(bytes: u64, what: &str) {
    assert!(
        (PAYLOAD..PAYLOAD + PAYLOAD / 8).contains(&bytes),
        "{what} allocated {bytes} B for a {PAYLOAD} B payload"
    );
}

#[test]
fn frame_decoder_allocates_one_payload_per_frame() {
    let (frame, msg) = big_frame();
    let mut decoder = FrameDecoder::new();
    decoder.extend(&frame);
    let (payload, bytes) = allocated(|| decoder.next_frame().unwrap().unwrap());
    assert_one_payload(bytes, "FrameDecoder::next_frame");
    assert_eq!(payload.len() as u64, PAYLOAD);
    assert_eq!(Message::decode(payload).unwrap(), msg);
}

#[test]
fn read_frame_allocates_one_payload_per_frame() {
    let (frame, msg) = big_frame();
    let (payload, bytes) = allocated(|| read_frame(&mut &frame[..]).unwrap().unwrap());
    assert_one_payload(bytes, "read_frame");
    assert_eq!(Message::decode(payload).unwrap(), msg);
}
