//! What is left of the hand-rolled codec the two hot envelopes once had: its
//! two entry points, which `benchmark/src` still names, as thin wrappers
//! over the derived codec the server itself uses (ROADMAP item 1 deletes
//! them with `rest.fastjson_fallback_ratio`).

use crate::wire::{TransferRequestEnvelope, TransferResponseEnvelope};
use pwm_core::{TransferAdvice, TransferSpec};

/// The transfers of a `{"transfers":[...]}` request body, decoded as the
/// server decodes them; `None` for a body it refuses with a 400.
pub fn parse_transfer_request(bytes: &[u8]) -> Option<Vec<TransferSpec>> {
    serde_json::from_slice::<TransferRequestEnvelope>(bytes)
        .ok()
        .map(|envelope| envelope.transfers)
}

/// The `{"advice":[...]}` response body, byte for byte what
/// `serde_json::to_vec(&TransferResponseEnvelope { advice })` writes.
pub fn render_transfer_response(advice: &[TransferAdvice]) -> Vec<u8> {
    // ~200 bytes an entry in practice: one allocation either way.
    let mut out = String::with_capacity(16 + 224 * advice.len());
    TransferResponseEnvelope::encode_borrowed(advice, &mut out);
    out.into_bytes()
}
