//! Damage a checkpoint's bytes cannot carry through `ShardStateRaw`
//! (a cell past the end of its register file, a count its cell cannot
//! hold), written into a document and sealed again, as anyone can
//! reseal a file: shared by `ckpt_drained.rs` and `ckpt_untrusted.rs`.

use replay::ckpt::fnv1a64;

/// `text` with `pair` put first in shard 0's register file `member`,
/// resealed under a valid checksum.
pub fn with_first_pair(text: &str, member: &str, pair: &str) -> String {
    let open = format!("\"{member}\":[");
    let at = text.find(&open).expect("shard 0 writes the member") + open.len();
    let sep = if text[at..].starts_with(']') { "" } else { "," };
    let damaged = format!("{}{pair}{sep}{}", &text[..at], &text[at..]);
    let from = damaged.find("\"payload\":").unwrap() + "\"payload\":".len();
    let sum = format!("{:016x}", fnv1a64(&damaged.as_bytes()[from..damaged.len() - 1]));
    let head = damaged.find("\"checksum\":\"").unwrap() + "\"checksum\":\"".len();
    format!("{}{sum}{}", &damaged[..head], &damaged[head + 16..])
}
