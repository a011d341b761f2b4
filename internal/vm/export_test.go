package vm

// LoopSrc exports loopSrc to the external vm_test package.
const LoopSrc = loopSrc
