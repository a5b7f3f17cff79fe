//! Request windows: what one policy call evaluates and answers, in buffers
//! the caller keeps from one call to the next.
//!
//! A [`TransferWindow`] holds the transfer groups of one pipelined window
//! (one group per client request) back to back, and the advice for them in
//! the same layout; a [`CleanupWindow`] holds one cleanup request and its
//! advice. The REST server keeps one of each per handler and refills them
//! for every call, the service drains the specs into facts and writes the
//! advice, and a sharded session partitions a window into per-shard slices
//! the window also keeps. Every buffer grows with the calls and is
//! [`trim`](TransferWindow::trim)med back to a cap the caller names after
//! an outsized one, so a steady stream of calls allocates none of them.

use crate::advice::{CleanupAdvice, TransferAdvice};
use crate::model::{CleanupSpec, TransferSpec};
use std::cmp::Ordering;

/// The transfer groups of one window and their advice.
#[derive(Debug, Default)]
pub struct TransferWindow {
    /// Every group's specs, back to back; evaluation moves them into facts.
    pub(crate) specs: Vec<TransferSpec>,
    /// Where each group ends, in `specs` before evaluation and in `advice`
    /// after it.
    pub(crate) ends: Vec<usize>,
    /// Each group's advice in its advised order, back to back.
    pub(crate) advice: Vec<TransferAdvice>,
    /// A multi-shard evaluation's partition: shard `s`'s slice of the
    /// window, kept for the next window.
    slices: Vec<ShardSlice>,
}

/// One shard's slice of a [`TransferWindow`]: the groups with a spec on
/// the shard, each naming the window group it is a slice of.
#[derive(Debug, Default)]
struct ShardSlice {
    window: TransferWindow,
    groups: Vec<usize>,
}

/// Shrink `v` back to `cap` if an outsized call grew it and what it holds
/// now fits.
fn trim_vec<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() > cap && v.len() <= cap {
        v.shrink_to(cap);
    }
}

impl TransferWindow {
    /// The window `groups` make, one group per list.
    pub fn from_groups(groups: Vec<Vec<TransferSpec>>) -> TransferWindow {
        let mut window = TransferWindow::default();
        for group in groups {
            window.push_group(group);
        }
        window
    }

    /// Empty the window for the next call, keeping its buffers.
    pub fn clear(&mut self) {
        self.specs.clear();
        self.ends.clear();
        self.advice.clear();
    }

    /// Append one request group.
    pub fn push_group(&mut self, specs: impl IntoIterator<Item = TransferSpec>) {
        self.specs.extend(specs);
        self.ends.push(self.specs.len());
    }

    /// Request groups in the window.
    pub fn groups(&self) -> usize {
        self.ends.len()
    }

    /// The advice for group `group`, once the window has been evaluated.
    pub fn advice(&self, group: usize) -> &[TransferAdvice] {
        let start = group.checked_sub(1).map_or(0, |g| self.ends[g]);
        &self.advice[start..self.ends[group]]
    }

    /// Each group's advice as its own list (the owned form of the API).
    pub fn into_advice_groups(self) -> Vec<Vec<TransferAdvice>> {
        let mut advice = self.advice.into_iter();
        let mut start = 0;
        (self.ends.iter())
            .map(|&end| {
                let group = advice.by_ref().take(end - start).collect();
                start = end;
                group
            })
            .collect()
    }

    /// Each group's specs as its own list (what a durable session logs).
    pub(crate) fn spec_groups(&self) -> Vec<Vec<TransferSpec>> {
        let mut start = 0;
        (self.ends.iter())
            .map(|&end| {
                let group = self.specs[start..end].to_vec();
                start = end;
                group
            })
            .collect()
    }

    /// Shrink every buffer an outsized call grew past `cap` entries back
    /// to `cap` (see [`TransferWindow::capacity`]).
    pub fn trim(&mut self, cap: usize) {
        trim_vec(&mut self.specs, cap);
        trim_vec(&mut self.ends, cap);
        trim_vec(&mut self.advice, cap);
        for slice in &mut self.slices {
            slice.window.trim(cap);
            trim_vec(&mut slice.groups, cap);
        }
    }

    /// The most specs, groups or advice entries any of the window's
    /// buffers, its shard slices' included, has room for.
    pub fn capacity(&self) -> usize {
        let own = (self.specs.capacity())
            .max(self.ends.capacity())
            .max(self.advice.capacity());
        (self.slices.iter())
            .map(|slice| slice.window.capacity().max(slice.groups.capacity()))
            .fold(own, usize::max)
    }

    /// Move every spec into the slice of the shard `route` names, keeping
    /// group order: shard `s` gets, in order, the groups with a spec it
    /// owns, each holding those specs in request order.
    pub(crate) fn partition(&mut self, shards: usize, route: impl Fn(&TransferSpec) -> usize) {
        if self.slices.len() < shards {
            self.slices.resize_with(shards, ShardSlice::default);
        }
        let slices = &mut self.slices[..shards];
        for slice in slices.iter_mut() {
            slice.window.clear();
            slice.groups.clear();
        }
        let mut specs = self.specs.drain(..);
        let mut start = 0;
        for (group, &end) in self.ends.iter().enumerate() {
            for spec in specs.by_ref().take(end - start) {
                slices[route(&spec)].window.specs.push(spec);
            }
            for slice in slices.iter_mut() {
                let held = slice.window.specs.len();
                if held > slice.window.ends.last().copied().unwrap_or(0) {
                    slice.window.ends.push(held);
                    slice.groups.push(group);
                }
            }
            start = end;
        }
    }

    /// Shard `s`'s slice, to be evaluated.
    pub(crate) fn slice(&mut self, s: usize) -> Option<&mut TransferWindow> {
        let slice = &mut self.slices[s].window;
        (!slice.ends.is_empty()).then_some(slice)
    }

    /// Gather every slice's advice back into its window group, then put
    /// each group in `order` and number it. A slice's last group sits at the
    /// end of its advice, so the groups are gathered last first, each taken
    /// off the end of its slice (which keeps its buffer), and the result
    /// reversed; `order` is total, so where a group's entries came from, and
    /// in which order, does not show.
    pub(crate) fn merge(
        &mut self,
        shards: usize,
        order: impl Fn(&TransferAdvice, &TransferAdvice) -> Ordering,
    ) {
        self.advice.clear();
        for group in (0..self.ends.len()).rev() {
            for slice in &mut self.slices[..shards] {
                if slice.groups.last() != Some(&group) {
                    continue;
                }
                slice.groups.pop();
                slice.window.ends.pop();
                let start = slice.window.ends.last().copied().unwrap_or(0);
                self.advice.extend(slice.window.advice.drain(start..));
            }
        }
        self.advice.reverse();
        let mut start = 0;
        for &end in &self.ends {
            let group = &mut self.advice[start..end];
            group.sort_unstable_by(&order);
            for (i, advice) in group.iter_mut().enumerate() {
                advice.order = i as u32;
            }
            start = end;
        }
    }
}

/// One cleanup request and its advice.
#[derive(Debug, Default)]
pub struct CleanupWindow {
    /// The request's cleanups; evaluation moves them into facts.
    pub(crate) specs: Vec<CleanupSpec>,
    /// The advice, in request order.
    pub(crate) advice: Vec<CleanupAdvice>,
    /// A multi-shard evaluation: the shard each cleanup went to, in request
    /// order, and each shard's slice of the request.
    route: Vec<usize>,
    slices: Vec<CleanupWindow>,
}

impl CleanupWindow {
    /// The window of one request.
    pub fn from_specs(specs: Vec<CleanupSpec>) -> CleanupWindow {
        CleanupWindow {
            specs,
            ..CleanupWindow::default()
        }
    }

    /// Empty the window for the next call, keeping its buffers.
    pub fn clear(&mut self) {
        self.specs.clear();
        self.advice.clear();
    }

    /// Replace the request with `specs`, keeping the buffers.
    pub fn fill(&mut self, specs: impl IntoIterator<Item = CleanupSpec>) {
        self.clear();
        self.specs.extend(specs);
    }

    /// The advice, once the window has been evaluated.
    pub fn advice(&self) -> &[CleanupAdvice] {
        &self.advice
    }

    /// The advice, owned.
    pub fn into_advice(self) -> Vec<CleanupAdvice> {
        self.advice
    }

    /// Shrink every buffer an outsized call grew past `cap` entries back
    /// to `cap`.
    pub fn trim(&mut self, cap: usize) {
        trim_vec(&mut self.specs, cap);
        trim_vec(&mut self.advice, cap);
        trim_vec(&mut self.route, cap);
        for slice in &mut self.slices {
            slice.trim(cap);
        }
    }

    /// The most cleanups or advice entries any of the window's buffers, its
    /// shard slices' included, has room for.
    pub fn capacity(&self) -> usize {
        let own = (self.specs.capacity())
            .max(self.advice.capacity())
            .max(self.route.capacity());
        self.slices
            .iter()
            .map(CleanupWindow::capacity)
            .fold(own, usize::max)
    }

    /// Move every cleanup into the slice of the shard `route` names, in
    /// request order, remembering where each went.
    pub(crate) fn partition(&mut self, shards: usize, route: impl Fn(&CleanupSpec) -> usize) {
        if self.slices.len() < shards {
            self.slices.resize_with(shards, CleanupWindow::default);
        }
        for slice in &mut self.slices[..shards] {
            slice.specs.clear();
            slice.advice.clear();
        }
        self.route.clear();
        for spec in self.specs.drain(..) {
            let s = route(&spec);
            self.route.push(s);
            self.slices[s].specs.push(spec);
        }
    }

    /// Shard `s`'s slice, to be evaluated.
    pub(crate) fn slice(&mut self, s: usize) -> Option<&mut CleanupWindow> {
        let slice = &mut self.slices[s];
        (!slice.specs.is_empty()).then_some(slice)
    }

    /// Put the slices' advice back in request order: a shard answers its
    /// slice in order, so walking the route backwards pops each answer off
    /// the end of its shard's slice.
    pub(crate) fn merge(&mut self) {
        self.advice.clear();
        for &s in self.route.iter().rev() {
            let advice = self.slices[s].advice.pop();
            self.advice
                .push(advice.expect("one advice per routed cleanup"));
        }
        self.advice.reverse();
    }
}
